#include "sim/simulator.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly
{

void
Simulator::addClocked(Clocked *c, Phase phase)
{
    const auto idx = static_cast<std::size_t>(phase);
    if (idx >= kPhases)
        panic("bad phase %zu", idx);
    phases[idx].push_back(c);
}

void
Simulator::retireClocked(Clocked *c)
{
    retired.push_back(c);
}

void
Simulator::compactRetired()
{
    for (auto &phase : phases) {
        phase.erase(std::remove_if(phase.begin(), phase.end(),
                        [this](Clocked *c) {
                            return std::find(retired.begin(),
                                             retired.end(),
                                             c) != retired.end();
                        }),
                    phase.end());
    }
    retired.clear();
}

void
Simulator::stepOneCycle()
{
    // Publish the cycle for trace emitters that have no Simulator
    // reference (obs::traceNow); a single word store per cycle.
    obs::publishTraceNow(_now);
    curPhase = 0;
    if (_events.runUntil(_now) > 0)
        lastProgress = _now;
    // Gating reads each due cycle as the phase reaches it, so a due
    // cycle lowered earlier in this cycle (a bus completion waking a
    // processor) takes effect in this very cycle.
    const bool gate = ffEnabled;
    for (auto &phase : phases) {
        for (auto *c : phase) {
            if (gate && c->dueCycle() > _now)
                continue;
            ++ticksCalled;
            c->tick(_now);
        }
        ++curPhase;
    }
    if (!retired.empty())
        compactRetired();
    if (watchdogBound != 0 && _now - lastProgress >= watchdogBound) {
        // A processor sleeping through a compute burst reports that
        // progress only when settled; only then is the machine wedged.
        settle();
        if (_now - lastProgress >= watchdogBound)
            reportWedge();
    }
    ++_now;
    curPhase = 0;
}

void
Simulator::settle()
{
    for (std::size_t p = 0; p < kPhases; ++p) {
        const Cycle horizon = settleHorizon(static_cast<Phase>(p));
        for (auto *c : phases[p])
            c->settle(horizon);
    }
}

void
Simulator::fastForward(Cycle when)
{
    // The machine may skip to the earliest cycle any component is
    // due: the next scheduled event, or a Clocked component's due
    // cycle.  Nothing executes over the skipped span, so nothing can
    // schedule new work inside it - the bound stays valid once
    // computed; components credit the span lazily (Clocked::settle).
    // The probe runs after every stepped cycle, so every idle span is
    // skipped whole.  A component due now ends it at once (the bus,
    // scanned first, is busy on most cycles of a saturated run).
    Cycle wake = _events.nextEventCycle();
    for (const auto &phase : phases) {
        for (const auto *c : phase) {
            const Cycle due = c->dueCycle();
            if (due <= _now)
                return;
            wake = std::min(wake, due);
        }
    }
    Cycle target = std::min(wake, when);
    // Never skip past the watchdog deadline: the wedge must fire at
    // the same cycle it would have fired on the slow path.
    if (watchdogBound != 0)
        target = std::min(target, lastProgress + watchdogBound);
    if (target <= _now)
        return;
    ffSkipped += target - _now;
    _now = target;
}

void
Simulator::reportWedge()
{
    std::string diag =
        "simulation wedged: no progress for " +
        std::to_string(watchdogBound) + " cycles (now " +
        std::to_string(_now) + ", last progress " +
        std::to_string(lastProgress) + ")\npending events:\n" +
        _events.describePending();
    if (watchdogThrows)
        throw SimulationWedged(diag);
    panic("%s", diag.c_str());
}

void
Simulator::run(Cycle cycles)
{
    runUntil(_now + cycles);
}

void
Simulator::runUntil(Cycle when)
{
    while (_now < when) {
        stepOneCycle();
        if (ffEnabled && _now < when)
            fastForward(when);
    }
    // Every statistic is exact whenever a run returns.
    settle();
}

} // namespace firefly
