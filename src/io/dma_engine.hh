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
 * Completion status of an I/O request.  Devices time out when the
 * fault injector decides the operation hangs; the requester sees the
 * timeout after `deviceTimeoutCycles` and decides whether to retry.
 */
enum class IoStatus : std::uint8_t
{
    Ok,
    TimedOut,
};

const char *toString(IoStatus status);

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
     * then time out: the transfer never starts and the callback fires
     * with IoStatus::TimedOut after the configured timeout, so a hung
     * device surfaces as a completion the requester can retry instead
     * of a wedged event queue.
     */
    void setFaultInjector(fault::FaultInjector *inj) { injector = inj; }
    fault::FaultInjector *faultInjector() const { return injector; }

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
        std::vector<Word> data;  ///< write source / read accumulator
        ReadCallback readDone;
        WriteCallback writeDone;
        bool serviceTraced = false;  ///< begin event already emitted
    };

    void pump();
    void checkAddress(Addr addr, unsigned count) const;
    /** Draw the per-request timeout fault; counts and traces it.
     *  The caller schedules the timed-out completion. */
    bool injectTimeout(Addr addr, bool is_write);

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
