/**
 * @file
 * The processor timing model.
 *
 * A TraceCpu executes the activity stream of a RefSource against its
 * cache with the paper's timing:
 *
 *   MicroVAX 78032: 200 ns ticks (2 bus cycles); a cache hit occupies
 *   the memory interface for one 400 ns memory cycle (2 ticks); a
 *   clean miss adds one tick when the bus is free; a dirty miss adds
 *   a victim write first.  With the 11.9-TPI base workload this gives
 *   ~420 K instructions/s and ~36 % interface occupancy, matching
 *   Section 5's description.
 *
 *   CVAX 78034: 100 ns ticks; hits complete in 200 ns; misses add
 *   four CVAX cycles plus bus waiting.  An optional on-chip cache
 *   filters instruction (and, for the ablation, data) reads at
 *   one-tick occupancy.
 *
 * Tag-store contention (a snoop probe in the same cycle) costs one
 * retry tick - the analytic model's SP term.
 *
 * The processor is due (Clocked) only on the tick boundaries where it
 * issues work: it sleeps through the off cycles, through compute
 * bursts and hit occupancy, and through memory stalls (until the
 * cache's completion callback wakes it).  The ticks it sleeps through
 * are credited to `ticks`, `compute_ticks` and `mem_wait_ticks` by
 * arithmetic whenever they can be observed: on settle(), at the
 * completion callback, and on fence().  Ticked every cycle (gating
 * off) it counts each tick as it happens, the reference the lazy
 * crediting must match.
 */

#ifndef FIREFLY_CPU_TRACE_CPU_HH
#define FIREFLY_CPU_TRACE_CPU_HH

#include <string>

#include "cache/cache.hh"
#include "cpu/onchip_cache.hh"
#include "cpu/ref_source.hh"
#include "cpu/vax_mix.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace firefly
{

/** Processor timing parameters. */
struct CpuTiming
{
    unsigned cyclesPerTick = microVaxCyclesPerTick;
    unsigned hitOccupancyTicks = hitTicks;
    /** Ticks to restart the pipeline after a miss completes.  One
     *  200 ns tick on the MicroVAX (miss adds +1 tick over a hit);
     *  two 100 ns ticks on the CVAX (miss adds +4 CVAX cycles). */
    unsigned missRestartTicks = 1;

    static CpuTiming
    microVax()
    {
        return {microVaxCyclesPerTick, hitTicks, 1};
    }

    static CpuTiming
    cvax()
    {
        return {cvaxCyclesPerTick, hitTicks, 2};
    }
};

/** One processor: consumes a RefSource, drives a Cache. */
class TraceCpu : public Clocked
{
  public:
    TraceCpu(Simulator &sim, Cache &cache, RefSource &source,
             CpuTiming timing, std::string name,
             OnChipCache *onchip = nullptr);

    void tick(Cycle now) override;
    void settle(Cycle horizon) override { credit(horizon); }

    /**
     * Fence the processor: it stops issuing new work, drains any
     * outstanding miss, then halts.  Used to offline a processor
     * mid-run; a fenced processor never resumes.
     */
    void fence();

    bool halted() const { return _halted; }
    const std::string &name() const { return _name; }

    /** Instructions completed (delegated to the source). */
    std::uint64_t
    instructions() const
    {
        return source.instructionsCompleted();
    }

    /** Processor ticks elapsed (including wait ticks). */
    std::uint64_t ticksElapsed() const { return tickCount.value(); }

    /** Achieved ticks per instruction so far. */
    double
    tpi() const
    {
        const auto instrs = instructions();
        return instrs ? static_cast<double>(ticksElapsed()) / instrs
                      : 0.0;
    }

    StatGroup &stats() { return statGroup; }

    Counter tickCount;       ///< processor ticks elapsed
    Counter computeTickCount;///< ticks spent in non-memory compute
    Counter memWaitTicks;    ///< ticks stalled on cache misses
    Counter tagRetryTicks;   ///< ticks lost to tag-store contention
    Counter onchipServed;    ///< references filtered by on-chip cache

  private:
    void issue(Cycle now);
    /** Account the tick boundaries before `horizon` (and before the
     *  due cycle) that the processor slept through. */
    void credit(Cycle horizon);
    /** Publish the due cycle for the current state. */
    void reschedule();

    Simulator &sim;
    Cache &cache;
    RefSource &source;
    CpuTiming timing;
    std::string _name;
    OnChipCache *onchip;

    /** First tick boundary not yet ticked or credited.  Kept instead
     *  of computing `now % cyclesPerTick` so the early-out in tick()
     *  is a compare, not a division. */
    Cycle nextTickCycle = 0;
    /** log2 of cyclesPerTick: crediting divides by shifting. */
    unsigned tickShift = 0;

    bool _halted = false;
    bool fenced = false;
    bool waitingForMem = false;
    bool hasPending = false;
    CpuStep pending{};
    std::uint64_t computeRemaining = 0;

    StatGroup statGroup;
};

} // namespace firefly

#endif // FIREFLY_CPU_TRACE_CPU_HH
