/**
 * @file
 * Discrete-event scheduling on top of the cycle clock.
 *
 * The core machine (CPUs, caches, MBus) is simulated synchronously,
 * cycle by cycle, but devices with long, sparse timing (display
 * refresh, disk seeks, DMA word pacing) schedule callbacks here
 * instead of ticking every cycle.
 *
 * Events may carry a static label naming who scheduled them; the
 * simulator's wedge watchdog prints the pending-event list with
 * those labels when a lost completion stalls the machine, so the
 * diagnostic points at the component that went quiet.
 */

#ifndef FIREFLY_SIM_EVENT_QUEUE_HH
#define FIREFLY_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/small_function.hh"
#include "sim/types.hh"

namespace firefly
{

/** A time-ordered queue of callbacks, FIFO among equal times. */
class EventQueue
{
  public:
    /** Event closure.  The inline capacity covers the tree's largest
     *  common capture (a moved-in completion callback plus a couple
     *  of words); bigger captures fall back to a heap box. */
    using EventFn = SmallFunction<void(), 64>;

    /**
     * Schedule fn to run at absolute cycle `when`.  `label` must be
     * a string with static lifetime (a literal); it is only read if
     * the event ends up in a wedge diagnostic.  Scheduling before the
     * horizon runUntil has already swept past is a simulator bug (the
     * event would appear to fire "on time" while actually being late,
     * hiding exactly the lost completions the watchdog exists to
     * catch) and panics.
     */
    void schedule(Cycle when, EventFn fn, const char *label = "");

    /** Cycle of the earliest pending event, or max if empty (read on
     *  every stepped cycle). */
    Cycle
    nextEventCycle() const
    {
        return heap.empty() ? std::numeric_limits<Cycle>::max()
                            : heap.front().when;
    }

    /** Events scheduled since construction (host-perf diagnostics). */
    std::uint64_t scheduled() const { return nextSeq; }

    /**
     * Run every event scheduled at or before `now`.
     * @return how many events executed.
     *
     * Inline early-out: most cycles have no ripe event, and this is
     * called once per simulated cycle, so the common case must not
     * cost a function call.
     */
    std::size_t
    runUntil(Cycle now)
    {
        if (heap.empty() || heap.front().when > now) {
            if (now > horizon)
                horizon = now;
            return 0;
        }
        return runPending(now);
    }

    /** Render the pending events (earliest first, up to `max`) for
     *  the watchdog's wedge diagnostic. */
    std::string describePending(std::size_t max = 16) const;

  private:
    /** Out-of-line body of runUntil for cycles with ripe events. */
    std::size_t runPending(Cycle now);

    /** A pending event's heap entry: its order, and the slot that
     *  holds its closure.  Heap moves shuffle these 24 bytes, never
     *  the closures. */
    struct Key
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    struct Slot
    {
        const char *label = nullptr;
        EventFn fn;
    };

    /** Binary heap managed with std::push_heap/pop_heap so
     *  describePending can walk the pending set. */
    std::vector<Key> heap;
    /** Closures by slot; a slot is free once its event has run. */
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    std::uint64_t nextSeq = 0;
    /** Latest cycle runUntil has swept; schedules before it panic. */
    Cycle horizon = 0;
};

} // namespace firefly

#endif // FIREFLY_SIM_EVENT_QUEUE_HH
