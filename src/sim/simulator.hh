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
 *   3. Phase::Cpu    - processors issue references,
 *   4. Phase::Device - polled device logic.
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
 * anywhere (a bus request, a completion callback); a component whose
 * phase already ran this cycle then ticks next cycle.
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
     * when runUntil returns, before every StatSampler sample, and
     * before the watchdog declares a wedge.  Must be idempotent and
     * must not change simulated behaviour.
     */
    virtual void settle(Cycle horizon) { (void)horizon; }

    /** Earliest cycle at which tick() could act. */
    Cycle dueCycle() const { return due; }

  protected:
    void setDue(Cycle cycle) { due = cycle; }

  private:
    Cycle due = 0;
};

/** Evaluation phases within one cycle, in execution order. */
enum class Phase
{
    Bus = 0,
    Cpu,
    Device,
};

/** Number of phases. */
constexpr std::size_t kPhases = 3;

/** The simulation kernel: clock, component list, event queue. */
class Simulator
{
  public:
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

    /**
     * Permanently remove a component from the tick rotation (a halted
     * CPU never ticks again).  Safe to call from inside tick(): the
     * removal is deferred to the end of the current cycle.  A retired
     * component no longer contributes to quiescence decisions either.
     */
    void retireClocked(Clocked *c);

    /** Run for `cycles` more cycles (or until requestStop). */
    void run(Cycle cycles);

    /** Run until the absolute cycle `when` (or until requestStop). */
    void runUntil(Cycle when);

    /**
     * Ask the main loop to stop after the current cycle.  The request
     * latches: issued between run() calls (or on a run's final
     * cycle), it stops the next run() immediately instead of being
     * silently dropped.
     */
    void requestStop() { stopRequested = true; }

    /**
     * Enable or disable due-cycle gating and idle fast-forward (on by
     * default unless the FIREFLY_NO_FASTFORWARD environment variable
     * is set).  With it on, a component ticks only from its due cycle
     * on, and whenever nothing is due runUntil jumps time straight to
     * the earliest due cycle or event (or the run horizon).  With it
     * off every component ticks every cycle.  Simulated behaviour and
     * statistics are bit-identical either way; the switch exists so
     * tests and the perf lane can compare the two paths.
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
     * Settle every component's lazily credited statistics at the
     * current point of the current cycle (see Clocked::settle).
     */
    void settle();

    /**
     * The horizon for settling a component of phase `p` right now:
     * one past the current cycle once that phase has run in it, else
     * the current cycle.  A completion callback in the Bus phase, for
     * example, must not count the current cycle's processor tick,
     * which has not happened yet.
     */
    Cycle
    settleHorizon(Phase p) const
    {
        return _now + (static_cast<int>(p) < curPhase ? 1 : 0);
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
    void stepOneCycle();
    void fastForward(Cycle when);
    void compactRetired();
    [[noreturn]] void reportWedge();

    Cycle _now = 0;
    /** Phase whose components are ticking (kPhases once all have; 0
     *  between cycles and while events run). */
    int curPhase = 0;
    bool stopRequested = false;
    bool ffEnabled = true;
    Cycle ffSkipped = 0;
    std::uint64_t ticksCalled = 0;
    EventQueue _events;
    std::vector<Clocked *> phases[kPhases];
    std::vector<Clocked *> retired;

    Cycle watchdogBound = 0;
    bool watchdogThrows = false;
    Cycle lastProgress = 0;
};

} // namespace firefly

#endif // FIREFLY_SIM_SIMULATOR_HH
