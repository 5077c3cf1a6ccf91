/**
 * @file
 * The display work queue: a command ring in main memory that the MDC
 * polls by DMA and any processor fills, which gives every processor
 * symmetric access to the display.  Several MDCs on one QBus each own
 * a ring of their own.
 *
 * Layout at QBus address `base`: the producer index at +0, the
 * consumer index at +4, then `entries` 8-word command blocks from +8;
 * command i lives in block i % entries.  An idle controller polls
 * every 200 us.
 */

#ifndef FIREFLY_IO_WORK_QUEUE_HH
#define FIREFLY_IO_WORK_QUEUE_HH

#include <array>
#include <functional>

#include "io/qbus.hh"

namespace firefly
{

class MainMemory;

/** One ring: the MDC's poll loop and the host's producer. */
class WorkQueue
{
  public:
    /** One 8-word command block; word 0 is the opcode. */
    using Command = std::array<Word, 8>;
    /** Runs one command, then calls finish() (perhaps after DMA). */
    using Execute = std::function<void(const Command &)>;

    /** Command blocks in the ring. */
    static constexpr unsigned entries = 16;
    static_assert(entries > 0, "a work queue needs at least one entry");

    /** A ring at QBus address `base`. */
    WorkQueue(Simulator &sim, QBus &qbus, Addr base, Execute execute);
    WorkQueue(const WorkQueue &) = delete;
    WorkQueue &operator=(const WorkQueue &) = delete;

    /** Begin polling (idempotent). */
    void start();

    /**
     * The current command took `busy` cycles: after them, advance the
     * consumer and poll again at once.  An empty ring or a timed-out
     * DMA is polled again after the idle interval instead.
     */
    void finish(Cycle busy);

    /** Host side: write the next block and bump the producer (the
     *  ring is identity-mapped).  Panics if the ring is full. */
    void enqueue(MainMemory &memory, const Command &command) const;

    /** Host side: has the controller consumed every command? */
    bool drained(MainMemory &memory) const;

    Counter polls;
    Counter busyCycles;

  private:
    void poll();
    void pollLater();
    Addr blockAddr(Word index) const;

    Simulator &sim;
    QBus &qbus;
    Addr base;
    Execute execute;
    bool started = false;
};

} // namespace firefly

#endif // FIREFLY_IO_WORK_QUEUE_HH
