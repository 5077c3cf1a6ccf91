/**
 * @file
 * Experiment F3: regenerate paper Figure 3, "Cache Line States" -
 * the Firefly protocol's state transition diagram, derived by driving
 * a two-cache machine through every (state x operation x MShared)
 * combination and observing the resulting state.  Each observed
 * transition is checked against the paper's figure, and any mismatch
 * fails the run: the 17 edges are the oracle the Firefly protocol
 * table (src/cache/protocol.cc) must satisfy.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cache/cache.hh"
#include "mbus/mbus.hh"
#include "mem/main_memory.hh"
#include "sim/simulator.hh"

using namespace firefly;

namespace
{

constexpr Addr kA = 0x1000;
constexpr Addr kConflict = kA + 16 * 1024;

/** Transitions that disagreed with the paper's figure. */
int mismatches = 0;

/** Two Firefly caches on one bus, with blocking access helpers. */
struct Rig
{
    Simulator sim;
    MainMemory memory;
    MBus bus;
    Cache c0, c1;

    Rig()
        : bus(sim, memory),
          c0(sim, bus, makeProtocol(ProtocolKind::Firefly), {}, "c0"),
          c1(sim, bus, makeProtocol(ProtocolKind::Firefly), {}, "c1")
    {
        memory.addModule(4 * 1024 * 1024);
    }

    void
    access(Cache &cache, const MemRef &ref)
    {
        bool done = false;
        auto result = cache.cpuAccess(ref, [&](Word) { done = true; });
        if (result.outcome == Cache::AccessOutcome::Hit)
            return;
        while (!done)
            sim.run(1);
    }

    void read(Cache &c, Addr a) { access(c, {a, RefType::DataRead, 0}); }
    void write(Cache &c, Addr a) { access(c, {a, RefType::DataWrite, 1}); }

    LineState
    state(const Cache &cache) const
    {
        if (!cache.holds(kA))
            return LineState::Invalid;
        return cache.lineAt(kA).state;
    }

    /** Bring c0's line for kA into `target`, with or without c1
     *  sharing it. */
    void
    prepare(LineState target, bool other_holds)
    {
        switch (target) {
          case LineState::Invalid:
            break;
          case LineState::Valid:
            read(c0, kA);
            break;
          case LineState::Dirty:
            write(c0, kA);  // WT-allocate, Valid
            write(c0, kA);  // silent, Dirty
            break;
          case LineState::Shared:
            read(c1, kA);
            read(c0, kA);
            if (!other_holds)
                read(c1, kConflict);  // evict c1's copy
            return;
          default:
            break;
        }
        if (other_holds)
            read(c1, kA);
    }
};

struct Transition
{
    LineState from;
    std::string operation;  ///< paper notation: P-read, P-write, M-...
    std::string condition;  ///< MShared response, if relevant
    LineState expected;
    std::function<void(Rig &)> prepare;
    std::function<void(Rig &)> act;
};

void
experiment()
{
    bench::banner("Figure 3",
                  "Firefly cache line states and transitions");

    std::vector<Transition> transitions = {
        // --- processor reads ------------------------------------------
        {LineState::Invalid, "P-read miss", "(not MShared)",
         LineState::Valid,
         [](Rig &) {},
         [](Rig &r) { r.read(r.c0, kA); }},
        {LineState::Invalid, "P-read miss", "(MShared)",
         LineState::Shared,
         [](Rig &r) { r.prepare(LineState::Invalid, true); },
         [](Rig &r) { r.read(r.c0, kA); }},
        {LineState::Valid, "P-read hit", "",
         LineState::Valid,
         [](Rig &r) { r.prepare(LineState::Valid, false); },
         [](Rig &r) { r.read(r.c0, kA); }},
        {LineState::Dirty, "P-read hit", "",
         LineState::Dirty,
         [](Rig &r) { r.prepare(LineState::Dirty, false); },
         [](Rig &r) { r.read(r.c0, kA); }},
        {LineState::Shared, "P-read hit", "",
         LineState::Shared,
         [](Rig &r) { r.prepare(LineState::Shared, true); },
         [](Rig &r) { r.read(r.c0, kA); }},

        // --- processor writes -----------------------------------------
        {LineState::Invalid, "P-write miss (WT, no fill)",
         "(not MShared)", LineState::Valid,
         [](Rig &) {},
         [](Rig &r) { r.write(r.c0, kA); }},
        {LineState::Invalid, "P-write miss (WT, no fill)", "(MShared)",
         LineState::Shared,
         [](Rig &r) { r.prepare(LineState::Invalid, true); },
         [](Rig &r) { r.write(r.c0, kA); }},
        {LineState::Valid, "P-write hit", "(no bus op)",
         LineState::Dirty,
         [](Rig &r) { r.prepare(LineState::Valid, false); },
         [](Rig &r) { r.write(r.c0, kA); }},
        {LineState::Dirty, "P-write hit", "(no bus op)",
         LineState::Dirty,
         [](Rig &r) { r.prepare(LineState::Dirty, false); },
         [](Rig &r) { r.write(r.c0, kA); }},
        {LineState::Shared, "P-write hit (write-through)", "(MShared)",
         LineState::Shared,
         [](Rig &r) { r.prepare(LineState::Shared, true); },
         [](Rig &r) { r.write(r.c0, kA); }},
        {LineState::Shared, "P-write hit (write-through)",
         "(not MShared)", LineState::Valid,
         [](Rig &r) { r.prepare(LineState::Shared, false); },
         [](Rig &r) { r.write(r.c0, kA); }},

        // --- bus (M) operations observed by a snooping cache ----------
        {LineState::Valid, "M-read (snooped)", "",
         LineState::Shared,
         [](Rig &r) { r.prepare(LineState::Valid, false); },
         [](Rig &r) { r.read(r.c1, kA); }},
        {LineState::Dirty, "M-read (snooped, supplies data)", "",
         LineState::Shared,
         [](Rig &r) { r.prepare(LineState::Dirty, false); },
         [](Rig &r) { r.read(r.c1, kA); }},
        {LineState::Shared, "M-read (snooped)", "",
         LineState::Shared,
         [](Rig &r) { r.prepare(LineState::Shared, true); },
         [](Rig &r) { r.read(r.c1, kA); }},
        {LineState::Shared, "M-write (snooped update)", "",
         LineState::Shared,
         [](Rig &r) { r.prepare(LineState::Shared, true); },
         [](Rig &r) { r.write(r.c1, kA); }},
        {LineState::Dirty, "M-write (snooped update)", "",
         LineState::Shared,
         [](Rig &r) { r.prepare(LineState::Dirty, false); },
         [](Rig &r) { r.write(r.c1, kA); }},
        {LineState::Valid, "M-write (snooped update)", "",
         LineState::Shared,
         [](Rig &r) { r.prepare(LineState::Valid, false); },
         [](Rig &r) { r.write(r.c1, kA); }},
    };

    std::printf("%-9s %-34s %-15s %-9s %-9s %s\n", "from", "operation",
                "condition", "expected", "observed", "check");
    bench::rule();

    for (const auto &t : transitions) {
        Rig rig;
        t.prepare(rig);
        t.act(rig);
        const LineState observed = rig.state(rig.c0);
        const bool ok = observed == t.expected;
        mismatches += !ok;
        bench::exportStats(rig.c0.stats());
        std::printf("%-9s %-34s %-15s %-9s %-9s %s\n",
                    toString(t.from), t.operation.c_str(),
                    t.condition.c_str(), toString(t.expected),
                    toString(observed), ok ? "OK" : "** MISMATCH **");
    }
    bench::rule();
    std::printf("%zu transitions checked, %d mismatches "
                "(paper Figure 3 is reproduced when 0)\n",
                transitions.size(), mismatches);
}

} // namespace

int
main(int argc, char **argv)
{
    const int status = firefly::bench::runBenchMain(argc, argv, experiment);
    return status != 0 ? status : (mismatches != 0 ? 1 : 0);
}
