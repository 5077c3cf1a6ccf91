#include "sim/simulator.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly
{

Simulator::Simulator()
{
    obs::publishTraceNow(_now);
}

void
Simulator::addClocked(Clocked *c, Phase phase)
{
    const auto idx = static_cast<std::size_t>(phase);
    if (idx >= kPhases)
        panic("bad phase %zu", idx);
    phases[idx].push_back(c);
    c->sim = this;
}

void
Simulator::stepOneCycle()
{
    // Publish the cycle for trace emitters that have no Simulator
    // reference (obs::traceNow); a single word store per cycle.
    obs::publishTraceNow(_now);
    if (_events.runUntil(_now) > 0)
        lastProgress = _now;
    // One walk gates each tick and finds the next wake.  It reads each
    // due cycle as it reaches the component, so a due cycle lowered
    // earlier in this cycle (a bus completion waking a processor)
    // takes effect in this very cycle; one lowered after the walk
    // passed its component is folded in by Clocked::setDue.
    const bool gate = ffEnabled;
    wake = kNeverWakes;
    for (auto &phase : phases) {
        for (auto *c : phase) {
            if (!gate || c->due <= _now) {
                ++ticksCalled;
                c->tick(_now);
            }
            c->visited = _now;
            wake = std::min(wake, c->due);
        }
    }
    if (watchdogBound != 0 && _now - lastProgress >= watchdogBound) {
        // A processor sleeping through a compute burst reports that
        // progress only when settled; only then is the machine wedged.
        settle();
        if (_now - lastProgress >= watchdogBound)
            reportWedge();
    }
    ++_now;
}

void
Simulator::settle()
{
    for (const auto &phase : phases) {
        for (auto *c : phase)
            c->settle(settleHorizon(*c));
    }
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
        if (!ffEnabled || wake <= _now)
            continue;
        // Nothing is due before the wake the walk found, or the next
        // event.  Nothing executes over the skipped span, so nothing
        // can schedule work inside it; components credit the span
        // lazily (Clocked::settle).  Every idle span is skipped whole.
        Cycle target = std::min({wake, _events.nextEventCycle(), when});
        // Never skip past the watchdog deadline: the wedge must fire
        // at the same cycle it would have fired on the slow path.
        if (watchdogBound != 0)
            target = std::min(target, lastProgress + watchdogBound);
        if (target > _now) {
            ffSkipped += target - _now;
            _now = target;
        }
    }
    // Every statistic is exact whenever a run returns.
    settle();
}

} // namespace firefly
