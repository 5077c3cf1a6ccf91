/**
 * @file
 * Tests for the coherence checker subsystem (src/check/): the
 * golden-memory oracle, the invariant scanner, violation diagnostics,
 * and the on-chip cache snapshot validation.  The "teeth" tests
 * inject deliberately broken protocols (tests/broken_protocols.hh)
 * and assert the breakage is caught with a line-level diagnostic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "broken_protocols.hh"
#include "check/coherence_checker.hh"
#include "check/rig.hh"
#include "cpu/onchip_cache.hh"
#include "firefly/system.hh"
#include "obs/trace.hh"

using namespace firefly;
using check::CoherenceChecker;
using check::CoherenceViolation;
using check::GoldenMemory;
using firefly::check::checked;
using firefly::check::Rig;
using firefly::check::rigConfig;

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

// --- the oracle on its own -------------------------------------------------

namespace
{

/** A 4 MB memory for an oracle to fall back on. */
struct OracleRig
{
    MainMemory memory;
    GoldenMemory oracle{memory};

    OracleRig() { memory.addModule(4 * 1024 * 1024); }
};

} // namespace

TEST(Oracle, GrowingTheTableKeepsEveryWord)
{
    // Enough words for many doublings of the table, spread over
    // addresses whose low bits collide.
    OracleRig r;
    constexpr unsigned kWords = 20000;
    const auto addr = [](unsigned i) -> Addr {
        return (i % 64) * 0x10000 + (i / 64) * 0x40;
    };
    for (unsigned i = 0; i < kWords; ++i)
        r.oracle.serialize(i, addr(i), i * 3 + 1);
    for (unsigned i = 0; i < kWords; i += 2)
        r.oracle.serialize(kWords + i, addr(i), i * 5 + 2);
    for (unsigned i = 0; i < kWords; ++i) {
        ASSERT_TRUE(r.oracle.tracked(addr(i))) << i;
        const bool rewritten = i % 2 == 0;
        EXPECT_EQ(r.oracle.current(addr(i)),
                  rewritten ? i * 5 + 2 : i * 3 + 1) << i;
        EXPECT_EQ(r.oracle.writtenAt(addr(i)),
                  rewritten ? kWords + i : i) << i;
        EXPECT_FALSE(r.oracle.tracked(addr(i) + bytesPerWord)) << i;
    }
}

TEST(Oracle, ForEachTrackedVisitsEachWordOnce)
{
    OracleRig r;
    std::vector<Addr> expected;
    for (unsigned i = 0; i < 1000; ++i) {
        const Addr a = 0x8000 + i * 0x24;
        expected.push_back(a);
        r.oracle.serialize(i, a, i);
        r.oracle.serialize(i, a, i + 1);  // a second write, same word
    }
    std::vector<Addr> seen;
    r.oracle.forEachTracked([&](Addr a) { seen.push_back(a); });
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, expected);
}

TEST(Checker, CleanSharingRunPassesAndCounts)
{
    Rig rig(checked(rigConfig(ProtocolKind::Firefly, 3)));
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
    Rig rig(checked(rigConfig(ProtocolKind::Firefly)));
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
    Rig rig(checked(rigConfig(ProtocolKind::Mesi)));
    rig.memory.write(kA, 42);
    EXPECT_FALSE(rig.checker->oracle().tracked(kA));
    EXPECT_EQ(rig.checker->oracle().current(kA), 42u);
    EXPECT_EQ(rig.read(0, kA), 42u);  // validated against the baseline
    EXPECT_GT(rig.checker->loadsChecked.value(), 0u);
}

TEST(Checker, PeriodicFullScansRun)
{
    FireflyConfig cfg = checked(rigConfig(ProtocolKind::Berkeley));
    cfg.checker.fullScanPeriod = 4;
    Rig rig(cfg);
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
    FireflyConfig cfg = checked(rigConfig(ProtocolKind::Firefly));
    cfg.protocolTable = &test::kIgnoreMShared;
    Rig rig(cfg);
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
    FireflyConfig cfg = checked(rigConfig(ProtocolKind::Firefly));
    cfg.protocolTable = &test::kDeafToWrites;
    Rig rig(cfg);
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
padToPeriodicScan(Rig &rig, unsigned cache, unsigned period)
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
    FireflyConfig cfg = checked(rigConfig(ProtocolKind::Firefly));
    cfg.protocolTable = &test::kSilentSharedWrite;
    cfg.checker.fullScanPeriod = 4;
    Rig rig(cfg);
    rig.read(0, kA);
    rig.read(1, kA);
    ASSERT_EQ(rig.state(0, kA), LineState::Shared);
    // A periodic scan passes the line, so only the write can put it
    // back in front of the next one.
    padToPeriodicScan(rig, 0, cfg.checker.fullScanPeriod);
    const std::uint64_t txns = rig.checker->txnsObserved.value();
    rig.write(0, kA, 77);
    ASSERT_EQ(rig.checker->txnsObserved.value(), txns);  // truly silent
    try {
        padToPeriodicScan(rig, 0, cfg.checker.fullScanPeriod);
        FAIL() << "silent write to a shared line not caught";
    } catch (const CoherenceViolation &v) {
        const std::string what = v.what();
        EXPECT_EQ(rig.checker->txnsObserved.value(),
                  txns + cfg.checker.fullScanPeriod);
        EXPECT_NE(what.find("I3 exclusivity: cache0 holds " +
                            obs::hexAddr(kA)),
                  std::string::npos) << what;
        EXPECT_NE(what.find("I4 copies disagree at " + obs::hexAddr(kA)),
                  std::string::npos) << what;
        // Reported under kA's line, with kA's picture, not under the
        // padding fill whose settle ran the scan.
        EXPECT_NE(what.find("line " + obs::hexAddr(kA) + ":"),
                  std::string::npos) << what;
        EXPECT_NE(what.find("cache0: Dirty data=[" + obs::hexAddr(77) +
                            "]\n  cache1: Shared data=[" +
                            obs::hexAddr(0) + "]"),
                  std::string::npos) << what;
        EXPECT_NE(what.find("oracle: [" + obs::hexAddr(77) + "]"),
                  std::string::npos) << what;
    }
}

TEST(Checker, StaleCopyCaughtAtTheWritesOwnSettle)
{
    // A DMA write to a line only cache1 holds, with cache1 deaf to
    // it.  The write's own settle check reports the stale copy, in
    // the write's cycle: no periodic scan runs, and none is needed.
    FireflyConfig cfg = checked(rigConfig(ProtocolKind::Firefly));
    cfg.protocolTable = &test::kDeafToWrites;
    cfg.checker.fullScanPeriod = 0;
    Rig rig(cfg);
    rig.write(1, kA, 5);
    const std::uint64_t txns = rig.checker->txnsObserved.value();
    try {
        rig.dmaWrite(kA, {9});
        FAIL() << "stale copy not caught at the write's settle";
    } catch (const CoherenceViolation &v) {
        const std::string what = v.what();
        EXPECT_EQ(rig.checker->txnsObserved.value(), txns + 1);
        EXPECT_EQ(rig.checker->fullScans.value(), 0u);
        EXPECT_EQ(rig.sim.now(), rig.checker->oracle().writtenAt(kA));
        EXPECT_NE(what.find("I4 cached value at " + obs::hexAddr(kA)),
                  std::string::npos) << what;
    }
}

TEST(Checker, CurrentSettledLineNotCheckedAgainByTheScan)
{
    // A write-through to a line both caches share updates both copies
    // at its commit.  The settle check passes with every copy equal
    // to current(), so its verdict cannot change by the clock: the
    // periodic scan that follows checks no line at all (every check in
    // the span is a settle check).
    FireflyConfig cfg = checked(rigConfig(ProtocolKind::Firefly));
    cfg.checker.fullScanPeriod = 4;
    Rig rig(cfg);
    rig.read(0, kA);
    rig.read(1, kA);
    padToPeriodicScan(rig, 0, cfg.checker.fullScanPeriod);
    const std::uint64_t txns = rig.checker->txnsObserved.value();
    const std::uint64_t checks = rig.checker->lineChecks();
    const std::uint64_t scans = rig.checker->fullScans.value();

    rig.write(0, kA, 77);
    ASSERT_EQ(rig.checker->txnsObserved.value(), txns + 1);
    ASSERT_EQ(rig.state(1, kA), LineState::Shared);
    EXPECT_EQ(rig.checker->oracle().current(kA), 77u);
    padToPeriodicScan(rig, 0, cfg.checker.fullScanPeriod);

    EXPECT_EQ(rig.checker->fullScans.value(), scans + 1);
    EXPECT_EQ(rig.checker->lineChecks() - checks,
              rig.checker->txnsObserved.value() - txns);
}

TEST(Checker, SupersededCopyCaughtByTheSettleCheckAlone)
{
    // cache1, deaf to bus writes, keeps a value a DMA write
    // superseded.  A periodic scan is due after every transaction,
    // but the DMA write's settle check reports the stale copy first:
    // one line check, in the write's cycle, and no scan runs.
    FireflyConfig cfg = checked(rigConfig(ProtocolKind::Firefly));
    cfg.protocolTable = &test::kDeafToWrites;
    cfg.checker.fullScanPeriod = 1;
    Rig rig(cfg);
    rig.write(1, kA, 5);
    const std::uint64_t checks = rig.checker->lineChecks();
    const std::uint64_t scans = rig.checker->fullScans.value();
    try {
        rig.dmaWrite(kA, {9});
        FAIL() << "superseded copy not caught at the write's settle";
    } catch (const CoherenceViolation &v) {
        const std::string what = v.what();
        EXPECT_EQ(rig.checker->lineChecks() - checks, 1u);
        EXPECT_EQ(rig.checker->fullScans.value(), scans);
        EXPECT_EQ(rig.sim.now(), rig.checker->oracle().writtenAt(kA));
        EXPECT_NE(what.find("I4 cached value at " + obs::hexAddr(kA)),
                  std::string::npos) << what;
    }
}

TEST(Checker, ShortLivedStaleCopyCaught)
{
    // cache1, deaf to bus writes, holds kA clean when a DMA write
    // changes it.  It reads its stale copy the next cycle and loses
    // the line to a conflicting fill within five cycles of the write,
    // so no later scan can see the stale value.  The DMA write's
    // settle check must report it.
    FireflyConfig cfg = checked(rigConfig(ProtocolKind::Firefly));
    cfg.protocolTable = &test::kDeafToWrites;
    Rig rig(cfg);
    rig.dmaWrite(kA, {5});  // the oracle's value, which 9 supersedes
    rig.read(1, kA);
    ASSERT_EQ(rig.state(1, kA), LineState::Valid);
    const Addr conflict = kA + Cache::Geometry{}.cacheBytes;
    try {
        rig.dmaWrite(kA, {9});
        EXPECT_EQ(rig.read(1, kA), 5u);  // the stale copy, read
        rig.read(1, conflict);           // and evicted, clean
        ASSERT_EQ(rig.state(1, kA), LineState::Invalid);
        rig.checker->finalCheck();
        FAIL() << "short-lived stale copy not caught";
    } catch (const CoherenceViolation &v) {
        const std::string what = v.what();
        EXPECT_EQ(rig.sim.now(), rig.checker->oracle().writtenAt(kA));
        EXPECT_NE(what.find("I4 cached value at " + obs::hexAddr(kA) +
                            " is " + obs::hexAddr(5) +
                            " but the oracle says " + obs::hexAddr(9)),
                  std::string::npos) << what;
    }
}

TEST(Checker, ViolationEmitsFlightRecorderEvent)
{
    RecordingSink sink;
    obs::ScopedTraceSink scoped(&sink);
    FireflyConfig cfg = checked(rigConfig(ProtocolKind::Firefly));
    cfg.protocolTable = &test::kDeafToWrites;
    Rig rig(cfg);
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
    Rig rig(checked(rigConfig(ProtocolKind::Firefly, 2)));
    OnChipCache chip(OnChipCache::DataMode::InstructionsAndData, "onchip0");
    rig.checker->watch(chip);

    rig.memory.write(kA, 1);
    EXPECT_FALSE(chip.access({kA, RefType::DataRead, 0}));  // install
    rig.write(1, kA, 99);   // serializes 99 behind the chip's back
    EXPECT_THROW(chip.access({kA, RefType::DataRead, 0}),
                 CoherenceViolation);
}

TEST(Checker, OnChipRepairPreventsStaleness)
{
    // Same scenario, but with the repair commit observer the system
    // wires for InstructionsAndData mode: the write drops the entry, the
    // next access misses and reinstalls, and nothing is stale.
    Rig rig(checked(rigConfig(ProtocolKind::Firefly, 2)));
    OnChipCache chip(OnChipCache::DataMode::InstructionsAndData, "onchip0");
    rig.checker->watch(chip);
    rig.bus.addCommitObserver([&chip](const MBusTransaction &txn) {
        if (txn.type != MBusOpType::MRead)
            chip.observeBusWrite(txn.addr, txn.words);
    });

    rig.memory.write(kA, 1);
    EXPECT_FALSE(chip.access({kA, RefType::DataRead, 0}));
    rig.write(1, kA, 99);
    rig.sim.run(64);
    EXPECT_FALSE(chip.access({kA, RefType::DataRead, 0}));  // miss
    EXPECT_EQ(chip.staleIncidents.value(), 1u);
    EXPECT_TRUE(chip.access({kA, RefType::DataRead, 0}));   // clean hit
}

TEST(Checker, OnChipSnapshotsShadowTheDirectMappedEntries)
{
    Rig rig(checked(rigConfig(ProtocolKind::Firefly, 2)));
    OnChipCache chip(OnChipCache::DataMode::InstructionsAndData, "onchip0");
    const Addr conflict = kA + OnChipCache::sizeBytes;  // same entry

    // Installed before the checker attached: hits go unchecked.
    EXPECT_FALSE(chip.access({kA, RefType::DataRead, 0}));
    rig.checker->watch(chip);
    EXPECT_TRUE(chip.access({kA, RefType::DataRead, 0}));
    EXPECT_EQ(rig.checker->onChipChecks.value(), 0u);

    // A conflicting install replaces the entry and its snapshot; the
    // reinstalled line is snapshotted afresh, after the foreign write.
    EXPECT_FALSE(chip.access({conflict, RefType::DataRead, 0}));
    EXPECT_TRUE(chip.access({conflict, RefType::DataRead, 0}));
    EXPECT_EQ(rig.checker->onChipChecks.value(), 1u);
    rig.write(1, kA, 99);
    rig.sim.run(64);
    EXPECT_FALSE(chip.access({kA, RefType::DataRead, 0}));
    EXPECT_NO_THROW(chip.access({kA, RefType::DataRead, 0}));
    EXPECT_EQ(rig.checker->onChipChecks.value(), 2u);
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
