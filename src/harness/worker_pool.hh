/**
 * @file
 * A fixed-size pool of worker threads draining a job queue.
 *
 * The pool exists to run *independent simulations* concurrently (see
 * harness/sweep.hh): jobs must not share mutable state with each
 * other.  The simulator itself is thread-clean for this use - the
 * observability context (obs/trace.hh) is thread_local and
 * everything else hangs off per-instance objects - so a job that
 * builds, runs, and tears down its own FireflySystem touches nothing
 * another worker can see.
 *
 * Semantics are deliberately minimal: submit() enqueues a job,
 * wait() blocks until the queue is empty and every submitted job has
 * returned, and destruction wait()s then joins.  Jobs must not
 * throw; the sweep driver wraps user callbacks and captures their
 * exceptions (worker threads have nowhere sane to propagate one).
 */

#ifndef FIREFLY_HARNESS_WORKER_POOL_HH
#define FIREFLY_HARNESS_WORKER_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace firefly::harness
{

/** Fixed thread pool; jobs are independent and must not throw. */
class WorkerPool
{
  public:
    /** Spawn `threads` workers (at least one). */
    explicit WorkerPool(unsigned threads);

    /** wait(), then stop and join every worker. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Enqueue a job for any idle worker. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

  private:
    void workerLoop();

    std::mutex mutex;
    std::condition_variable workReady;   ///< queue non-empty or stopping
    std::condition_variable allDone;     ///< queue empty and none running
    std::deque<std::function<void()>> queue;  // guarded by mutex
    unsigned running = 0;                     // guarded by mutex
    bool stopping = false;                    // guarded by mutex
    std::vector<std::thread> workers;
};

} // namespace firefly::harness

#endif // FIREFLY_HARNESS_WORKER_POOL_HH
