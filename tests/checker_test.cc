/**
 * @file
 * Tests for the coherence checker subsystem (src/check/): the
 * golden-memory oracle, the invariant scanner, violation diagnostics,
 * and the on-chip cache snapshot validation.  The "teeth" tests
 * inject deliberately broken protocols (tests/broken_protocols.hh)
 * and assert the breakage is caught with a line-level diagnostic.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "broken_protocols.hh"
#include "check/coherence_checker.hh"
#include "cpu/onchip_cache.hh"
#include "firefly/system.hh"
#include "obs/trace.hh"
#include "test_util.hh"

using namespace firefly;
using check::CheckerConfig;
using check::CoherenceChecker;
using check::CoherenceViolation;
using firefly::test::CheckedRig;
using firefly::test::TestRig;

namespace
{

constexpr Addr kA = 0x1000;
constexpr Addr kB = 0x2000;

/** Captures every trace event for inspection. */
struct RecordingSink : obs::TraceSink
{
    std::vector<obs::TraceEvent> events;

    void event(const obs::TraceEvent &ev) override
    {
        events.push_back(ev);
    }
};

} // namespace

TEST(Checker, CleanSharingRunPassesAndCounts)
{
    CheckedRig rig(ProtocolKind::Firefly, 3);
    for (unsigned round = 0; round < 4; ++round) {
        for (unsigned c = 0; c < 3; ++c) {
            rig.write(c, kA, 100 * round + c);
            EXPECT_EQ(rig.read((c + 1) % 3, kA), 100 * round + c);
            rig.read(c, kB + c * 0x100);
        }
    }
    rig.checker->finalCheck();
    EXPECT_GT(rig.checker->loadsChecked.value(), 0u);
    EXPECT_GT(rig.checker->writesTracked.value(), 0u);
    EXPECT_GT(rig.checker->txnsObserved.value(), 0u);
    EXPECT_GT(rig.checker->lineScans.value(), 0u);
}

TEST(Checker, OracleTracksSilentAndBusWrites)
{
    CheckedRig rig(ProtocolKind::Firefly);
    // Write-through-allocate miss: serialized at the bus commit.
    rig.write(0, kA, 7);
    EXPECT_TRUE(rig.checker->oracle().tracked(kA));
    EXPECT_EQ(rig.checker->oracle().current(kA), 7u);
    // Read (Valid), write again: a silent Dirty write, serialized at
    // the local write instant.
    rig.read(0, kB);
    rig.write(0, kB, 9);
    EXPECT_EQ(rig.checker->oracle().current(kB), 9u);
    EXPECT_GE(rig.checker->writesTracked.value(), 2u);
    rig.checker->finalCheck();
}

TEST(Checker, UntrackedWordsReadFromMemoryBaseline)
{
    CheckedRig rig(ProtocolKind::Mesi);
    rig.memory.write(kA, 42);
    EXPECT_FALSE(rig.checker->oracle().tracked(kA));
    EXPECT_EQ(rig.checker->oracle().current(kA), 42u);
    EXPECT_EQ(rig.read(0, kA), 42u);  // validated against the baseline
    EXPECT_GT(rig.checker->loadsChecked.value(), 0u);
}

TEST(Checker, PeriodicFullScansRun)
{
    CheckerConfig ccfg;
    ccfg.fullScanPeriod = 4;
    CheckedRig rig(ProtocolKind::Berkeley, 2, {}, {}, ccfg);
    for (unsigned i = 0; i < 16; ++i)
        rig.write(i % 2, kA + i * 0x40, i);
    EXPECT_GT(rig.checker->fullScans.value(), 0u);
}

TEST(Checker, SkippedMSharedUpdateCaughtWithLineDiagnostic)
{
    // The broken protocol installs every fill as exclusive-clean,
    // ignoring what the MShared wire said - the classic "forgot the
    // sharing update" bug.  The second cache to fill the same line
    // violates exclusivity (I3) the instant its fill settles.
    CheckedRig rig(ProtocolKind::Firefly, 2, {}, [] {
        return std::make_unique<test::IgnoreMSharedProtocol>(
            makeProtocol(ProtocolKind::Firefly));
    });
    rig.read(0, kA);
    try {
        rig.read(1, kA);
        FAIL() << "broken protocol not caught";
    } catch (const CoherenceViolation &v) {
        const std::string what = v.what();
        EXPECT_NE(what.find("I3"), std::string::npos) << what;
        EXPECT_NE(what.find(obs::hexAddr(kA)), std::string::npos)
            << what;
        EXPECT_NE(what.find("cache0"), std::string::npos) << what;
        EXPECT_NE(what.find("cache1"), std::string::npos) << what;
    }
}

TEST(Checker, LostSnoopedWriteCaughtWithReplayLog)
{
    // This protocol drops snooped MWrites: a foreign write-through
    // never updates local copies.  After cache1's write the stale
    // copy in cache0 disagrees with both cache1 and the oracle.
    CheckedRig rig(ProtocolKind::Firefly, 2, {}, [] {
        return std::make_unique<test::DeafToWritesProtocol>(
            makeProtocol(ProtocolKind::Firefly));
    });
    rig.memory.write(kA, 5);
    rig.read(0, kA);
    rig.read(1, kA);
    try {
        rig.write(1, kA, 6);
        FAIL() << "lost update not caught";
    } catch (const CoherenceViolation &v) {
        const std::string what = v.what();
        EXPECT_NE(what.find("I4"), std::string::npos) << what;
        // The diagnostic carries the replay log, including the
        // offending MWrite itself.
        EXPECT_NE(what.find("last bus transactions"),
                  std::string::npos) << what;
        EXPECT_NE(what.find("MWrite"), std::string::npos) << what;
        EXPECT_NE(what.find(obs::hexAddr(kA)), std::string::npos)
            << what;
    }
}

namespace
{

/**
 * Read fresh lines above kB through `cache` until the checker has
 * observed a multiple of `period` transactions (a periodic scan).
 * Each read misses, so keying the address on the transaction count
 * never revisits a line.
 */
void
padToPeriodicScan(CheckedRig &rig, unsigned cache, unsigned period)
{
    do {
        rig.read(cache, kB + 0x40 * rig.checker->txnsObserved.value());
    } while (rig.checker->txnsObserved.value() % period != 0);
}

} // namespace

TEST(Checker, SilentSharedWriteCaughtByPeriodicScan)
{
    // The broken protocol turns a write hit on a Shared line into a
    // silent Dirty write: no bus transaction, so no per-transaction
    // line scan ever looks at the line.  The write's serialization
    // marks the line for the next periodic scan, which must find the
    // stale copy left in the other cache.
    CheckerConfig ccfg;
    ccfg.fullScanPeriod = 4;
    CheckedRig rig(ProtocolKind::Firefly, 2, {}, [] {
        return std::make_unique<test::SilentSharedWriteProtocol>(
            makeProtocol(ProtocolKind::Firefly));
    }, ccfg);
    rig.read(0, kA);
    rig.read(1, kA);
    ASSERT_EQ(rig.state(0, kA), LineState::Shared);
    // A periodic scan passes the line, so only the write can put it
    // back in front of the next one.
    padToPeriodicScan(rig, 0, ccfg.fullScanPeriod);
    const std::uint64_t txns = rig.checker->txnsObserved.value();
    rig.write(0, kA, 77);
    ASSERT_EQ(rig.checker->txnsObserved.value(), txns);  // truly silent
    try {
        padToPeriodicScan(rig, 0, ccfg.fullScanPeriod);
        FAIL() << "silent write to a shared line not caught";
    } catch (const CoherenceViolation &v) {
        const std::string what = v.what();
        EXPECT_EQ(rig.checker->txnsObserved.value(),
                  txns + ccfg.fullScanPeriod);
        EXPECT_NE(what.find("I3 exclusivity: cache0 holds " +
                            obs::hexAddr(kA)),
                  std::string::npos) << what;
        EXPECT_NE(what.find("I4 copies disagree at " + obs::hexAddr(kA)),
                  std::string::npos) << what;
    }
}

TEST(Checker, StaleCopyCaughtOnceRaceWindowCloses)
{
    // A DMA write to a line only cache1 holds, with cache1 deaf to
    // it.  At the write's own settle the stale copy is still
    // admissible (superseded this very cycle), so the line scan and a
    // periodic scan in the same cycle pass it.  The line must stay
    // marked until a periodic scan after the race window catches it.
    CheckerConfig ccfg;
    ccfg.fullScanPeriod = 4;
    CheckedRig rig(ProtocolKind::Firefly, 2, {}, [] {
        return std::make_unique<test::DeafToWritesProtocol>(
            makeProtocol(ProtocolKind::Firefly));
    }, ccfg);
    rig.write(1, kA, 5);  // tracked, so the old value stays admissible
    while (rig.checker->txnsObserved.value() % ccfg.fullScanPeriod !=
           ccfg.fullScanPeriod - 1) {
        rig.read(0, kB + 0x1000 + 0x40 * rig.checker->txnsObserved.value());
    }
    bool done = false;
    rig.caches[0]->dmaAccess({kA, RefType::DataWrite, 9},
                             [&](Word) { done = true; });
    while (!done)
        rig.sim.run(1);
    const std::uint64_t scans = rig.checker->fullScans.value();
    ASSERT_EQ(rig.checker->txnsObserved.value() % ccfg.fullScanPeriod, 0u);
    rig.sim.run(2 * ccfg.raceWindowCycles);
    try {
        padToPeriodicScan(rig, 0, ccfg.fullScanPeriod);
        FAIL() << "stale copy outlived the race window unnoticed";
    } catch (const CoherenceViolation &v) {
        const std::string what = v.what();
        EXPECT_EQ(rig.checker->fullScans.value(), scans + 1);
        EXPECT_NE(what.find("I4 cached value at " + obs::hexAddr(kA)),
                  std::string::npos) << what;
    }
}

TEST(Checker, ViolationEmitsFlightRecorderEvent)
{
    RecordingSink sink;
    obs::ScopedTraceSink scoped(&sink);
    CheckedRig rig(ProtocolKind::Firefly, 2, {}, [] {
        return std::make_unique<test::DeafToWritesProtocol>(
            makeProtocol(ProtocolKind::Firefly));
    });
    rig.read(0, kA);
    rig.read(1, kA);
    EXPECT_THROW(rig.write(1, kA, 6), CoherenceViolation);
    bool found = false;
    for (const auto &ev : sink.events) {
        if (std::string(ev.category) == obs::kCatCheck &&
            ev.name == "violation") {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Checker, OnChipStalenessDetectedWithoutRepair)
{
    // An InstructionsAndData on-chip cache that is NOT wired to the
    // bus-write repair observer serves stale data after a foreign
    // write; the checker's install-time snapshot catches the hit.
    CheckedRig rig(ProtocolKind::Firefly, 2);
    OnChipCache::Config oc;
    oc.mode = OnChipCache::DataMode::InstructionsAndData;
    OnChipCache chip(oc, "onchip0");
    rig.checker->watch(chip);

    rig.memory.write(kA, 1);
    EXPECT_FALSE(chip.access({kA, RefType::DataRead, 0}));  // install
    rig.write(1, kA, 99);   // serializes 99 behind the chip's back
    rig.sim.run(64);        // move past the race window
    EXPECT_THROW(chip.access({kA, RefType::DataRead, 0}),
                 CoherenceViolation);
}

TEST(Checker, OnChipRepairPreventsStaleness)
{
    // Same scenario, but with the repair observer the system wires
    // for InstructionsAndData mode: the write drops the entry, the
    // next access misses and reinstalls, and nothing is stale.
    CheckedRig rig(ProtocolKind::Firefly, 2);
    OnChipCache::Config oc;
    oc.mode = OnChipCache::DataMode::InstructionsAndData;
    OnChipCache chip(oc, "onchip0");
    rig.checker->watch(chip);
    rig.bus->addWriteObserver([&chip](Addr addr, unsigned words) {
        chip.observeBusWrite(addr, words);
    });

    rig.memory.write(kA, 1);
    EXPECT_FALSE(chip.access({kA, RefType::DataRead, 0}));
    rig.write(1, kA, 99);
    rig.sim.run(64);
    EXPECT_FALSE(chip.access({kA, RefType::DataRead, 0}));  // miss
    EXPECT_EQ(chip.staleIncidents.value(), 1u);
    EXPECT_TRUE(chip.access({kA, RefType::DataRead, 0}));   // clean hit
}

TEST(Checker, SystemLevelCheckedRunStaysClean)
{
    // A whole CVAX machine - CPUs, on-chip caches, synthetic
    // workload - under the checker.  Any violation would panic.
    FireflyConfig cfg = FireflyConfig::cvax(3);
    cfg.coherenceCheck = true;
    FireflySystem sys(cfg);
    ASSERT_NE(sys.checker(), nullptr);
    SyntheticConfig workload;
    sys.attachSyntheticWorkload(workload);
    sys.run(0.01);
    EXPECT_GT(sys.checker()->loadsChecked.value(), 0u);
    EXPECT_GT(sys.checker()->txnsObserved.value(), 0u);
    sys.checker()->finalCheck();
    // The checker's stats ride in the stat tree for --stats-json.
    EXPECT_GT(sys.checker()->stats().get("loads_checked"), 0.0);
}

TEST(Checker, CheckedRunDoesNotPerturbStatistics)
{
    // Purely observational: the same workload with and without the
    // checker produces identical machine statistics.
    const auto busReads = [](bool checked) {
        FireflyConfig cfg = FireflyConfig::microVax(2);
        cfg.coherenceCheck = checked;
        FireflySystem sys(cfg);
        SyntheticConfig workload;
        sys.attachSyntheticWorkload(workload);
        sys.run(0.01);
        return std::pair(sys.bus().stats().get("reads"),
                         sys.bus().stats().get("writes"));
    };
    EXPECT_EQ(busReads(false), busReads(true));
}

TEST(Checker, FullSizeCheckedRunIsCleanAndUnperturbed)
{
    // A full-size machine - seven MicroVAX processors on the Firefly
    // protocol - under the checker for a million cycles, then the
    // exhaustive final scan.  A violation panics.  The stat tree,
    // less the checker's own subtree, must equal an unchecked run's.
    const auto run = [](bool checked) {
        FireflyConfig cfg = FireflyConfig::microVax(7);
        cfg.coherenceCheck = checked;
        FireflySystem sys(cfg);
        sys.attachSyntheticWorkload(SyntheticConfig{});
        sys.simulator().run(1'000'000);
        if (checked) {
            sys.checker()->finalCheck();
            EXPECT_GT(sys.checker()->fullScans.value(), 1u);
        }
        std::ostringstream all;
        sys.stats().dumpJson(all);
        std::string text = all.str();
        if (checked) {
            std::ostringstream sub;
            sys.checker()->stats().dumpJson(sub, 1);
            const std::string cut = ", " + sub.str();
            const auto at = text.find(cut);
            EXPECT_NE(at, std::string::npos);
            if (at != std::string::npos)
                text.erase(at, cut.size());
        }
        return text;
    };
    EXPECT_EQ(run(true), run(false));
}
