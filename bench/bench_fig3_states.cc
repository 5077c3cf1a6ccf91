/**
 * @file
 * Experiment F3: regenerate paper Figure 3, "Cache Line States" -
 * the Firefly protocol's state transition diagram, derived by driving
 * a two-cache machine through every (state x operation x MShared)
 * combination and observing the resulting state.  Each observed
 * transition is checked against the paper's figure, and any mismatch
 * fails the run: the 17 edges are the oracle the Firefly protocol
 * table (src/cache/protocol.cc) must satisfy.  Every transition runs
 * under the coherence checker, which aborts on any violation.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "check/rig.hh"

using namespace firefly;

namespace
{

constexpr Addr kA = 0x1000;
constexpr Addr kConflict = kA + 16 * 1024;

/** Transitions that disagreed with the paper's figure. */
int mismatches = 0;

/** Two Firefly caches, c0 and c1, on one bus, under the checker. */
using Rig = check::CheckedRig;

/** Bring cache 0's line for kA into `target`, with or without
 *  cache 1 sharing it. */
void
prepare(Rig &r, LineState target, bool other_holds)
{
    switch (target) {
      case LineState::Invalid:
        break;
      case LineState::Valid:
        r.read(0, kA);
        break;
      case LineState::Dirty:
        r.write(0, kA, 1);  // WT-allocate, Valid
        r.write(0, kA, 1);  // silent, Dirty
        break;
      case LineState::Shared:
        r.read(1, kA);
        r.read(0, kA);
        if (!other_holds)
            r.read(1, kConflict);  // evict cache 1's copy
        return;
      default:
        break;
    }
    if (other_holds)
        r.read(1, kA);
}

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
         [](Rig &r) { r.read(0, kA); }},
        {LineState::Invalid, "P-read miss", "(MShared)",
         LineState::Shared,
         [](Rig &r) { prepare(r, LineState::Invalid, true); },
         [](Rig &r) { r.read(0, kA); }},
        {LineState::Valid, "P-read hit", "",
         LineState::Valid,
         [](Rig &r) { prepare(r, LineState::Valid, false); },
         [](Rig &r) { r.read(0, kA); }},
        {LineState::Dirty, "P-read hit", "",
         LineState::Dirty,
         [](Rig &r) { prepare(r, LineState::Dirty, false); },
         [](Rig &r) { r.read(0, kA); }},
        {LineState::Shared, "P-read hit", "",
         LineState::Shared,
         [](Rig &r) { prepare(r, LineState::Shared, true); },
         [](Rig &r) { r.read(0, kA); }},

        // --- processor writes -----------------------------------------
        {LineState::Invalid, "P-write miss (WT, no fill)",
         "(not MShared)", LineState::Valid,
         [](Rig &) {},
         [](Rig &r) { r.write(0, kA, 1); }},
        {LineState::Invalid, "P-write miss (WT, no fill)", "(MShared)",
         LineState::Shared,
         [](Rig &r) { prepare(r, LineState::Invalid, true); },
         [](Rig &r) { r.write(0, kA, 1); }},
        {LineState::Valid, "P-write hit", "(no bus op)",
         LineState::Dirty,
         [](Rig &r) { prepare(r, LineState::Valid, false); },
         [](Rig &r) { r.write(0, kA, 1); }},
        {LineState::Dirty, "P-write hit", "(no bus op)",
         LineState::Dirty,
         [](Rig &r) { prepare(r, LineState::Dirty, false); },
         [](Rig &r) { r.write(0, kA, 1); }},
        {LineState::Shared, "P-write hit (write-through)", "(MShared)",
         LineState::Shared,
         [](Rig &r) { prepare(r, LineState::Shared, true); },
         [](Rig &r) { r.write(0, kA, 1); }},
        {LineState::Shared, "P-write hit (write-through)",
         "(not MShared)", LineState::Valid,
         [](Rig &r) { prepare(r, LineState::Shared, false); },
         [](Rig &r) { r.write(0, kA, 1); }},

        // --- bus (M) operations observed by a snooping cache ----------
        {LineState::Valid, "M-read (snooped)", "",
         LineState::Shared,
         [](Rig &r) { prepare(r, LineState::Valid, false); },
         [](Rig &r) { r.read(1, kA); }},
        {LineState::Dirty, "M-read (snooped, supplies data)", "",
         LineState::Shared,
         [](Rig &r) { prepare(r, LineState::Dirty, false); },
         [](Rig &r) { r.read(1, kA); }},
        {LineState::Shared, "M-read (snooped)", "",
         LineState::Shared,
         [](Rig &r) { prepare(r, LineState::Shared, true); },
         [](Rig &r) { r.read(1, kA); }},
        {LineState::Shared, "M-write (snooped update)", "",
         LineState::Shared,
         [](Rig &r) { prepare(r, LineState::Shared, true); },
         [](Rig &r) { r.write(1, kA, 1); }},
        {LineState::Dirty, "M-write (snooped update)", "",
         LineState::Shared,
         [](Rig &r) { prepare(r, LineState::Dirty, false); },
         [](Rig &r) { r.write(1, kA, 1); }},
        {LineState::Valid, "M-write (snooped update)", "",
         LineState::Shared,
         [](Rig &r) { prepare(r, LineState::Valid, false); },
         [](Rig &r) { r.write(1, kA, 1); }},
    };

    std::printf("%-9s %-34s %-15s %-9s %-9s %s\n", "from", "operation",
                "condition", "expected", "observed", "check");
    bench::rule();

    for (const auto &t : transitions) {
        Rig rig(ProtocolKind::Firefly, {"c0", "c1"});
        t.prepare(rig);
        t.act(rig);
        rig.checker.finalCheck();
        const LineState observed = rig.state(0, kA);
        const bool ok = observed == t.expected;
        mismatches += !ok;
        bench::exportStats(rig.caches[0]->stats());
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
