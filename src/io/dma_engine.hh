/**
 * @file
 * The shared DMA path from the QBus into Firefly memory.
 *
 * All QBus devices reach main memory through the I/O processor's
 * cache ("DMA references to main memory are made through the I/O
 * processor's cache (although DMA misses do not allocate)").  The
 * engine paces transfers at the QBus block-mode rate - one longword
 * per `cyclesPerWord` bus cycles (default 12 = 1.2 us, i.e. ~3.3
 * MB/s, the paper's "fully loaded QBus consumes about 30% of the
 * main memory bandwidth").  Device requests are served FIFO, one
 * word at a time, so concurrent devices share the QBus fairly.
 */

#ifndef FIREFLY_IO_DMA_ENGINE_HH
#define FIREFLY_IO_DMA_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "cache/cache.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace firefly
{

namespace fault
{
class FaultInjector;
}

/**
 * Completion status of an I/O request.  A request the fault injector
 * hangs times out after `deviceTimeoutCycles`; the engine retries it
 * after the configured backoff and reports TimedOut only once
 * `fault::kDeviceRetryBudget` attempts have timed out.
 */
enum class IoStatus : std::uint8_t
{
    Ok,
    TimedOut,
};

/** Paced word-at-a-time DMA through the I/O processor's cache. */
class DmaEngine
{
  public:
    using ReadCallback = std::function<void(IoStatus, std::vector<Word>)>;
    using WriteCallback = std::function<void(IoStatus)>;

    /**
     * @param io_cache  the primary processor's cache.
     * @param io_limit  highest physical address DMA may touch (the
     *                  first 16 MB on every Firefly).
     * @param cycles_per_word  QBus pacing (12 = 3.33 MB/s).
     */
    DmaEngine(Simulator &sim, Cache &io_cache, Addr io_limit,
              Cycle cycles_per_word = 12);

    /** Read `count` longwords starting at physical `addr`. */
    void readWords(Addr addr, unsigned count, ReadCallback done);

    /** Write `data` starting at physical `addr`. */
    void writeWords(Addr addr, std::vector<Word> data,
                    WriteCallback done);

    bool idle() const { return requests.empty() && !wordInFlight; }

    /**
     * Attach the fault injector (nullptr detaches).  Requests can
     * then time out: the transfer never starts, and after the
     * configured timeout the engine retries it with backoff.  The
     * engine owns this policy for every requester: the callback fires
     * with IoStatus::TimedOut only once the retry budget is spent, so
     * a hung device surfaces as a completion instead of a wedged
     * event queue.
     */
    void setFaultInjector(fault::FaultInjector *inj) { injector = inj; }

    StatGroup &stats() { return statGroup; }

    Counter wordsRead;
    Counter wordsWritten;
    Counter requestCount;

  private:
    struct Request
    {
        bool isWrite;
        Addr addr;
        unsigned remaining;
        /** Write source / read buffer, one slot per word; the next
         *  word is `data.size() - remaining`. */
        std::vector<Word> data;
        ReadCallback readDone;
        WriteCallback writeDone;
        unsigned attempt = 0;  ///< timed-out attempts so far
    };

    /** Check, then complete an empty request, time one out, or queue
     *  it; a retry re-enters here. */
    void submit(Request req);
    /** The request hung: after the timeout, retry it with backoff or,
     *  once the budget is spent, complete it with TimedOut. */
    void timeOut(Request req);
    void complete(Request &req, IoStatus status);
    void pump();

    Simulator &sim;
    Cache &ioCache;
    Addr ioLimit;
    Cycle pacing;

    std::deque<Request> requests;
    bool wordInFlight = false;
    fault::FaultInjector *injector = nullptr;

    StatGroup statGroup;
};

} // namespace firefly

#endif // FIREFLY_IO_DMA_ENGINE_HH
