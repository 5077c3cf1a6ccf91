/**
 * @file
 * The Topaz runtime model.
 *
 * Interprets thread behaviour programs (behavior.hh) on the simulated
 * processors.  Every runtime action - lock acquire/release, condition
 * wait/signal, context switch, fork, join, ready-queue manipulation -
 * *emits the memory references the real Taos Nub would have made*:
 * interlocked accesses to lock words, reads and writes of TCBs,
 * stacks, per-processor ready queues and the shared heap, plus
 * instruction fetches from a shared Nub code region.  Thread user
 * code runs as VAX-mix instruction bundles against the thread's own
 * code loop and stack.  All of these structures live at real
 * simulated physical addresses, so the workload exercises the
 * coherence protocol exactly the way the paper's Threads exerciser
 * exercised the hardware (Table 2).
 *
 * Synchronisation is functionally enforced by the runtime (mutual
 * exclusion is correct by construction); the *data* still flows
 * through the simulated memory system, and the lock-protected shared
 * counters are implemented with real read-modify-write references,
 * so end-to-end coherence is checkable against the counter values in
 * simulated memory.
 */

#ifndef FIREFLY_TOPAZ_RUNTIME_HH
#define FIREFLY_TOPAZ_RUNTIME_HH

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cpu/ref_source.hh"
#include "cpu/vax_mix.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "topaz/arena.hh"
#include "topaz/behavior.hh"
#include "topaz/scheduler.hh"

namespace firefly
{

/** Runtime configuration. */
struct TopazConfig
{
    unsigned cpus = 1;
    SchedulerPolicy policy = SchedulerPolicy::Affinity;

    /** Lock-protected shared counters (TopazRuntime::counterAddr). */
    static constexpr unsigned counters = 8;

    std::uint64_t seed = 1;
};

/** The runtime: scheduler + interpreter + per-CPU reference ports. */
class TopazRuntime
{
  public:
    explicit TopazRuntime(const TopazConfig &config);
    ~TopazRuntime();

    TopazRuntime(const TopazRuntime &) = delete;
    TopazRuntime &operator=(const TopazRuntime &) = delete;

    /** Register a program so Fork ops can reference it by index. */
    unsigned registerProgram(BehaviorProgram program);

    /** Create a thread running registered program `program_id`.
     *  Returns the thread id (creation order). */
    unsigned addThread(unsigned program_id);

    /** The reference stream of processor `cpu` (attach to TraceCpu). */
    RefSource &port(unsigned cpu);

    /** True once every thread has finished. */
    bool done() const;

    /**
     * Stop scheduling onto `cpu` and requeue its running thread (if
     * any) for an online processor.  The caller is responsible for
     * fencing the simulated processor itself; this only moves the
     * Topaz-level thread state.
     */
    void offlineCpu(unsigned cpu);

    /** Simulated address of shared counter `index` (tests read the
     *  final value from simulated memory). */
    Addr counterAddr(unsigned index) const;

    const TopazConfig &config() const { return cfg; }
    StatGroup &stats() { return statGroup; }

    /** Mutexes and conditions the runtime provides (op indices). */
    static constexpr unsigned mutexCount = 8;
    static constexpr unsigned conditionCount = 8;
    /** Forced yield after this many user instructions (time slice). */
    static constexpr std::uint64_t sliceInstructions = 2000;

    // Statistics, public for benches.
    Counter contextSwitches;
    Counter migrations;       ///< dispatches on a different CPU
    Counter locksAcquired;
    Counter lockContentions;  ///< acquires that had to block
    Counter waits;
    Counter signals;
    Counter broadcasts;
    Counter forks;
    Counter joins;
    Counter yields;
    Counter idleSpins;
    Counter orphanWakes;      ///< end-of-run spurious wakeups (benign)
    Counter deadlockBreaks;   ///< watchdog force-wakes (should be 0)
    Counter userInstructions;
    Counter kernelInstructions;

  private:
    friend class TopazPort;

    enum class ThreadState : std::uint8_t
    {
        Ready,
        Running,
        Blocked,
        Done,
    };

    struct Thread
    {
        unsigned id = 0;
        unsigned programId = 0;
        std::uint64_t iterationsLeft = 1;
        std::size_t pc = 0;           ///< index into program body
        std::uint64_t opProgress = 0; ///< remaining units of body[pc]
        ThreadState state = ThreadState::Ready;
        unsigned lastCpu = 0;
        bool everRan = false;

        Addr tcb = 0;
        Addr stackBase = 0;
        Addr codeBase = 0;
        Addr codePtr = 0;

        Rng rng{1};
        double computeDebt = 0.0;
        std::uint64_t sliceLeft = 0;

        /** Mutex to reacquire when woken from a condition wait. */
        int resumeMutex = -1;

        /** Threads this thread forked (for JoinAll). */
        std::vector<unsigned> forkedChildren;
    };

    struct Mutex
    {
        Addr word = 0;
        int holder = -1;
        std::deque<unsigned> waiters;
    };

    struct Condition
    {
        Addr word = 0;
        std::deque<unsigned> waiters;
    };

    // --- interpreter ---------------------------------------------------
    /** Refill `cpu`'s step queue (called by the port when empty). */
    void advance(unsigned cpu);
    void dispatch(unsigned cpu);
    void interpret(unsigned cpu, Thread &thread);
    void finishIteration(unsigned cpu, Thread &thread);
    void threadDone(unsigned cpu, Thread &thread);
    void switchOut(unsigned cpu, Thread &thread, ThreadState new_state);
    void wake(unsigned thread_id);
    void breakDeadlockIfStuck(unsigned cpu);

    // --- emission helpers (push steps to a CPU's port) ------------------
    void emitRef(unsigned cpu, const MemRef &ref);
    void emitCompute(unsigned cpu, std::uint32_t ticks);
    void emitKernel(unsigned cpu, unsigned instructions);
    void emitUserInstructions(unsigned cpu, Thread &thread,
                              unsigned instructions);
    void emitTouch(unsigned cpu, Thread &thread, Addr base, Addr words,
                   unsigned count);
    void emitInterlocked(unsigned cpu, Addr word, Word value);

    Addr heapWordAddr(unsigned word) const;

    TopazConfig cfg;
    MemoryArena arena;
    TopazScheduler scheduler;
    Rng rng;

    // Simulated-memory layout: every runtime structure lives in the
    // arena's range.
    static constexpr Addr arenaBase = 0x0040'0000;
    static constexpr Addr arenaBytes = 8 * 1024 * 1024;
    static constexpr Addr sharedHeapWords = 1024;
    static constexpr Addr threadStackWords = 2048;
    static constexpr Addr threadCodeWords = 128;
    Addr nubCodeBase = 0;
    static constexpr Addr nubCodeWords = 512;
    std::vector<Addr> nubPtr;          ///< per-CPU Nub fetch pointer
    std::vector<Addr> readyQueueAddr;  ///< per-CPU queue head word
    Addr sharedHeapBase = 0;
    Addr counterBase = 0;

    std::vector<BehaviorProgram> programs;
    std::vector<std::unique_ptr<Thread>> threads;
    std::vector<Mutex> mutexes;
    std::vector<Condition> conditions;
    std::vector<std::vector<unsigned>> joinWaiters;

    std::vector<int> currentThread;  ///< per CPU, -1 if idle
    std::vector<std::unique_ptr<class TopazPort>> ports;
    unsigned runningCount = 0;
    unsigned doneCount = 0;
    unsigned nextForkCpu = 0;
    Word writeSeq = 1;

    StatGroup statGroup;
};

} // namespace firefly

#endif // FIREFLY_TOPAZ_RUNTIME_HH
