/**
 * @file
 * The cycle-driven simulation core.
 *
 * One Simulator instance owns simulated time.  Synchronous components
 * (MBus, CPUs) register as Clocked objects in a fixed phase order so
 * each cycle is evaluated deterministically:
 *
 *   1. pending events whose time has arrived (device timers, DMA),
 *   2. Phase::Bus    - the MBus advances its transaction state machine
 *                      (caches act inside its callbacks),
 *   3. Phase::Cpu    - processors issue references.
 *
 * Devices have no phase of their own: they act through scheduled
 * events.
 *
 * Steps 2 and 3 are one walk over the components in that order: it
 * ticks each component that is due and folds the component's due
 * cycle into the next wake, so idle fast-forward needs no second pass.
 *
 * Determinism matters: two runs with the same configuration and seed
 * produce bit-identical statistics (there is a regression test).
 */

#ifndef FIREFLY_SIM_SIMULATOR_HH
#define FIREFLY_SIM_SIMULATOR_HH

#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace firefly
{

/** Thrown by the wedge watchdog when configured to throw. */
class SimulationWedged : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Due cycle of a component with no work ever again. */
constexpr Cycle kNeverWakes = std::numeric_limits<Cycle>::max();

class Simulator;

/**
 * Interface for synchronous components.
 *
 * Wake protocol: a component publishes its *due cycle*, the earliest
 * cycle at which its tick() could do anything.  The simulator skips
 * tick() before that cycle, and idle fast-forward jumps time to the
 * earliest due cycle (or event) when nothing is due now.  The default
 * due cycle is 0, "due every cycle", so a component that does not opt
 * in ticks every cycle exactly as written.  A due cycle must be
 * conservative: publishing a cycle later than the component's first
 * real work would change simulated behaviour.  It may be lowered from
 * anywhere (a bus request, a completion callback); a component the
 * simulator's walk has already passed this cycle then ticks next
 * cycle.
 *
 * With fast-forward off every component ticks every cycle regardless,
 * which makes the ungated run the reference the gated one must match.
 *
 * A component that sleeps through cycles it would otherwise count
 * (processor ticks, bus cycles) credits them lazily, and settle()
 * makes those counters exact on demand.
 */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Evaluate one 100 ns bus cycle. */
    virtual void tick(Cycle now) = 0;

    /**
     * Bring lazily credited statistics up to date: account every
     * cycle before `horizon` this component slept through.  Called
     * when runUntil returns and before the watchdog declares a
     * wedge.  Must be idempotent and must not change simulated
     * behaviour.
     */
    virtual void settle(Cycle horizon) { (void)horizon; }

    /** Earliest cycle at which tick() could act. */
    Cycle dueCycle() const { return due; }

  protected:
    /** Publish the due cycle (defined after Simulator: the fold). */
    void setDue(Cycle cycle);

  private:
    friend class Simulator;

    Cycle due = 0;
    /** The simulator this component is registered with. */
    Simulator *sim = nullptr;
    /** Last cycle whose walk passed this component. */
    Cycle visited = kNeverWakes;
};

/** Evaluation phases within one cycle, in execution order. */
enum class Phase
{
    Bus = 0,
    Cpu,
};

/** Number of phases. */
constexpr std::size_t kPhases = 2;

/** The simulation kernel: clock, component list, event queue. */
class Simulator
{
  public:
    /** Publishes cycle 0 as this thread's trace clock, so events a
     *  machine's builders emit before its first cycle (Topaz's
     *  `ready` instants) carry its time, not the previous machine's. */
    Simulator();
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current cycle (complete cycles so far). */
    Cycle now() const { return _now; }

    /** Simulated seconds elapsed. */
    double seconds() const { return cyclesToSeconds(_now); }

    /** Event queue for scheduled callbacks. */
    EventQueue &events() { return _events; }

    /** Register a synchronous component in the given phase. */
    void addClocked(Clocked *c, Phase phase);

    /** Run for `cycles` more cycles. */
    void run(Cycle cycles);

    /** Run until the absolute cycle `when`. */
    void runUntil(Cycle when);

    /**
     * Enable or disable due-cycle gating and idle fast-forward (on by
     * default; FireflyConfig::fastForward and the benches'
     * --no-fast-forward turn it off).  With it on, a component ticks
     * only from its due cycle on, and whenever nothing is due
     * runUntil jumps time straight to the earliest due cycle the walk
     * found, or the next event (or the run horizon).  With it off
     * every component ticks every cycle.  Simulated behaviour and statistics are bit-identical
     * either way; the switch exists so tests and the perf lane can
     * compare the two paths.
     */
    void setFastForward(bool enabled) { ffEnabled = enabled; }
    bool fastForwardEnabled() const { return ffEnabled; }

    /** Cycles skipped by idle fast-forward (host-perf diagnostics;
     *  deliberately not a registered stat, so exports stay identical
     *  between the fast and slow paths). */
    Cycle cyclesFastForwarded() const { return ffSkipped; }

    /** Clocked::tick calls made so far (host-perf diagnostics, like
     *  cyclesFastForwarded: the work the gating saves shows here). */
    std::uint64_t ticksDispatched() const { return ticksCalled; }

    /**
     * The horizon for settling component `c` right now: one past the
     * current cycle once this cycle's walk has passed `c`, else the
     * current cycle.  A completion callback in the Bus phase, for
     * example, must not count the current cycle's processor tick,
     * which has not happened yet.
     */
    Cycle
    settleHorizon(const Clocked &c) const
    {
        return _now + (c.visited == _now ? 1 : 0);
    }

    /**
     * Wedge watchdog: if no component reports progress for `bound`
     * cycles, abort with a diagnostic listing the pending events
     * instead of spinning forever (a lost DMA/device completion
     * otherwise wedges "while (!done) sim.run(1)" loops).  Progress
     * is any executed event, bus activity, or a CPU doing work -
     * components call noteProgress().  A bound of 0 disables the
     * watchdog (the default: an idle machine is not an error).
     * `throw_on_wedge` raises SimulationWedged instead of dying.
     */
    void setWatchdog(Cycle bound, bool throw_on_wedge = false)
    {
        watchdogBound = bound;
        watchdogThrows = throw_on_wedge;
        lastProgress = _now;
    }

    /** A component did useful work this cycle (cheap: one store). */
    void noteProgress() { lastProgress = _now; }

    /** A lazily credited component did useful work at `cycle` (a
     *  tick boundary of a compute burst it slept through). */
    void
    noteProgressAt(Cycle cycle)
    {
        if (cycle > lastProgress)
            lastProgress = cycle;
    }

  private:
    friend class Clocked;

    /**
     * Settle every component's lazily credited statistics at the
     * current point of the current cycle (see Clocked::settle).
     */
    void settle();
    void stepOneCycle();
    [[noreturn]] void reportWedge();

    Cycle _now = 0;
    /** Earliest due cycle of the components this cycle's walk has
     *  passed (Clocked::setDue folds later lowerings in). */
    Cycle wake = kNeverWakes;
    bool ffEnabled = true;
    Cycle ffSkipped = 0;
    std::uint64_t ticksCalled = 0;
    EventQueue _events;
    std::vector<Clocked *> phases[kPhases];

    Cycle watchdogBound = 0;
    bool watchdogThrows = false;
    Cycle lastProgress = 0;
};

inline void
Clocked::setDue(Cycle cycle)
{
    due = cycle;
    // The fold rule: a component the walk has already passed this
    // cycle was read into the wake, so a lower due cycle must reach
    // it too.  One the walk has not reached is read when it gets there.
    if (sim != nullptr && visited == sim->_now && cycle < sim->wake)
        sim->wake = cycle;
}

} // namespace firefly

#endif // FIREFLY_SIM_SIMULATOR_HH
