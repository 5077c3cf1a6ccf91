#include "cpu/trace_cpu.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly
{

TraceCpu::TraceCpu(Simulator &sim, Cache &cache, RefSource &source,
                   CpuTiming timing, std::string name,
                   OnChipCache *onchip)
    : sim(sim), cache(cache), source(source), timing(timing),
      _name(std::move(name)), onchip(onchip), statGroup(_name)
{
    sim.addClocked(this, Phase::Cpu);

    // First tick boundary at or after "now": keeps tick phase on
    // multiples of cyclesPerTick even for a CPU attached mid-run.
    const Cycle cpt = timing.cyclesPerTick;
    if (cpt == 0 || (cpt & (cpt - 1)) != 0)
        fatal("%s: %u cycles per tick is not a power of two",
              _name.c_str(), timing.cyclesPerTick);
    while ((Cycle{1} << tickShift) < cpt)
        ++tickShift;
    nextTickCycle = (sim.now() + cpt - 1) / cpt * cpt;
    setDue(nextTickCycle);

    statGroup.addCounter(&tickCount, "ticks", "processor ticks");
    statGroup.addCounter(&computeTickCount, "compute_ticks",
                         "ticks of non-memory compute");
    statGroup.addCounter(&memWaitTicks, "mem_wait_ticks",
                         "ticks stalled waiting for the cache");
    statGroup.addCounter(&tagRetryTicks, "tag_retry_ticks",
                         "ticks lost to snoop tag contention");
    statGroup.addCounter(&onchipServed, "onchip_served",
                         "references filtered by the on-chip cache");
    statGroup.addFormula("instructions", "instructions completed",
        [this] { return static_cast<double>(instructions()); });
    statGroup.addFormula("tpi", "achieved ticks per instruction",
        [this] { return tpi(); });
}

void
TraceCpu::credit(Cycle horizon)
{
    // Boundaries before the due cycle are the ones slept through:
    // stalled on the cache, or inside a compute burst.
    const Cycle end = std::min(horizon, dueCycle());
    if (_halted || end <= nextTickCycle)
        return;
    const Cycle n = (end - nextTickCycle + timing.cyclesPerTick - 1) >>
                    tickShift;
    tickCount += n;
    if (waitingForMem) {
        memWaitTicks += n;
    } else {
        // Each compute tick is watchdog progress, as if ticked.
        computeTickCount += n;
        computeRemaining -= n;
        sim.noteProgressAt(nextTickCycle + ((n - 1) << tickShift));
    }
    nextTickCycle += n << tickShift;
}

void
TraceCpu::reschedule()
{
    if (_halted || waitingForMem)
        setDue(kNeverWakes);  // a completion callback wakes a stall
    else if (fenced)
        setDue(nextTickCycle);  // halts on its next boundary
    else
        setDue(nextTickCycle + computeRemaining * timing.cyclesPerTick);
}

void
TraceCpu::fence()
{
    credit(sim.settleHorizon(Phase::Cpu));
    fenced = true;
    reschedule();
}

void
TraceCpu::tick(Cycle now)
{
    // Ticked every cycle (gating off), this skips the off cycles; the
    // stall and compute branches below then count tick by tick.
    // Gated, it runs only at the due boundary, after crediting the
    // boundaries slept through.
    if (now < nextTickCycle || _halted)
        return;
    credit(now);
    nextTickCycle = now + timing.cyclesPerTick;

    ++tickCount;

    if (waitingForMem) {
        ++memWaitTicks;
        return;
    }
    // Doing work (compute or issue) is watchdog progress; stalling on
    // a lost memory completion deliberately is not.
    sim.noteProgress();
    if (fenced) {
        // Outstanding state is drained (no miss in flight); stop
        // issuing and halt.  The cache may still hold dirty lines -
        // the offlining host flushes them once the bus drains too.
        _halted = true;
        setDue(kNeverWakes);
        sim.retireClocked(this);
        if (auto *ts = obs::traceSink())
            ts->instant(sim.now(), obs::kCatCpu, _name, "fenced");
        return;
    }
    if (computeRemaining > 0) {
        --computeRemaining;
        ++computeTickCount;
        return;
    }
    issue(now);
    reschedule();
}

void
TraceCpu::issue(Cycle now)
{
    (void)now;
    // A step may be carried over from a tag-store retry.
    for (int guard = 0; guard < 1000; ++guard) {
        if (!hasPending) {
            pending = source.next();
            hasPending = true;
        }

        switch (pending.kind) {
          case CpuStep::Kind::Halt:
            _halted = true;
            hasPending = false;
            sim.retireClocked(this);
            if (auto *ts = obs::traceSink())
                ts->instant(sim.now(), obs::kCatCpu, _name, "halt");
            return;

          case CpuStep::Kind::Compute:
            if (pending.ticks == 0) {
                hasPending = false;
                continue;  // empty step, fetch the next one
            }
            // This tick is the first of the compute burst.
            computeRemaining = pending.ticks - 1;
            ++computeTickCount;
            hasPending = false;
            return;

          case CpuStep::Kind::Ref: {
            if (onchip && onchip->access(pending.ref)) {
                // Served on chip: one-tick occupancy, no board access.
                ++onchipServed;
                hasPending = false;
                return;
            }
            const MemRef issued = pending.ref;
            const auto result = cache.cpuAccess(
                issued, [this, issued](Word data) {
                    // Stall ticks up to now; in the Bus phase this
                    // cycle's boundary is still to come.
                    credit(sim.settleHorizon(Phase::Cpu));
                    waitingForMem = false;
                    if (auto *ts = obs::traceSink())
                        ts->end(sim.now(), obs::kCatCpu, _name);
                    // Pipeline restart after the bus completion: +1
                    // tick on the MicroVAX (the paper's one-tick miss
                    // penalty), +2 CVAX ticks (misses add 400 ns).
                    computeRemaining += timing.missRestartTicks;
                    reschedule();
                    source.onRefCompleted(issued, data);
                });
            switch (result.outcome) {
              case Cache::AccessOutcome::Hit:
                computeRemaining = timing.hitOccupancyTicks - 1;
                hasPending = false;
                source.onRefCompleted(issued, result.data);
                return;
              case Cache::AccessOutcome::RetryTagBusy:
                ++tagRetryTicks;
                return;  // keep the pending step, retry next tick
              case Cache::AccessOutcome::Pending:
                waitingForMem = true;
                hasPending = false;
                // The stall renders as a slice on the CPU track from
                // issue to the cache's completion callback.
                if (auto *ts = obs::traceSink()) {
                    ts->begin(sim.now(), obs::kCatCpu, _name, "stall",
                              {{"addr", obs::hexAddr(issued.addr)},
                               {"write",
                                isWrite(issued.type) ? "1" : "0"}});
                }
                return;
            }
            return;
          }
        }
    }
    panic("%s: runaway zero-length steps from the workload source",
          _name.c_str());
}

} // namespace firefly
