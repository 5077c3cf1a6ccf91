/**
 * @file
 * Due-cycle gating and the snoop filter must be invisible.
 *
 * A gated machine ticks a component only from the cycle it publishes
 * as due; processors sleep through compute bursts and memory stalls
 * and credit the skipped ticks by arithmetic.  Every observation
 * point must see exactly what a machine ticking every component every
 * cycle sees: counters read between run() slices, the watchdog,
 * fence() and processor offlining.  Each test runs both ways and
 * compares.  The bus's snoop filter reads the caches' own tags: it
 * must probe exactly the caches that hold the line, without changing
 * the tag-store contention the others see.  The bus itself wakes only
 * at a transaction's grant, its probe cycle (only when another cache
 * holds the line) and its data cycles, and must still count, stamp
 * and arbitrate as a bus ticked on all four phases does.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/rig.hh"
#include "cpu/trace_cpu.hh"
#include "firefly/system.hh"
#include "obs/trace.hh"

using namespace firefly;
using firefly::check::Rig;
using firefly::check::rigConfig;

namespace
{

/** Plays back a fixed list of steps, then halts. */
struct ScriptedSource : RefSource
{
    std::vector<CpuStep> steps;
    std::size_t pos = 0;

    CpuStep
    next() override
    {
        if (pos >= steps.size())
            return CpuStep::makeHalt();
        return steps[pos++];
    }
};

/** One MicroVAX running a script on a two-cache Firefly bus. */
struct OneCpu : Rig
{
    ScriptedSource source;
    std::unique_ptr<TraceCpu> cpu;

    explicit OneCpu(bool gated) : Rig(rigConfig(ProtocolKind::Firefly, 2))
    {
        sim.setFastForward(gated);
        cpu = std::make_unique<TraceCpu>(sim, *caches[0], source,
                                         CpuTiming::microVax(), "cpu0");
    }

    /** (now, ticks, compute, mem wait, halted) */
    auto
    counts() const
    {
        return std::make_tuple(sim.now(), cpu->tickCount.value(),
                               cpu->computeTickCount.value(),
                               cpu->memWaitTicks.value(),
                               cpu->halted());
    }
};

/** Runs `action` in the Cpu phase of every cycle, where a processor
 *  issues its references. */
struct CpuPhase : Clocked
{
    std::function<void(Cycle)> action;

    CpuPhase(Simulator &sim, std::function<void(Cycle)> fn)
        : action(std::move(fn))
    {
        sim.addClocked(this, Phase::Cpu);
    }

    void tick(Cycle now) override { action(now); }
};

std::string
statsJson(FireflySystem &sys)
{
    std::ostringstream os;
    sys.stats().dumpJson(os);
    return os.str();
}

/** Every processor's tick, compute and memory-wait counters, read
 *  before each 7-cycle run() slice of a saturated 4-CPU machine: most
 *  slices end inside a compute burst or a stall the gated processors
 *  are asleep in.  One row per read: the cycle, then the twelve
 *  counters. */
std::vector<std::vector<std::uint64_t>>
slicedRun(bool gated)
{
    FireflySystem sys(FireflyConfig::microVax(4));
    sys.simulator().setFastForward(gated);
    sys.attachSyntheticWorkload(SyntheticConfig{});
    std::vector<std::vector<std::uint64_t>> rows;
    for (Cycle t = 0; t < 20'000; t += 7) {
        std::vector<std::uint64_t> row = {sys.simulator().now()};
        for (unsigned i = 0; i < 4; ++i) {
            const TraceCpu &cpu = sys.cpu(i);
            row.insert(row.end(), {cpu.tickCount.value(),
                                   cpu.computeTickCount.value(),
                                   cpu.memWaitTicks.value()});
        }
        rows.push_back(std::move(row));
        sys.simulator().run(7);
    }
    return rows;
}

} // namespace

TEST(Gating, CountersBetweenRunSlicesMatchEveryCycleTicking)
{
    const auto gated = slicedRun(true);
    const auto every = slicedRun(false);
    EXPECT_EQ(gated, every);

    // A slice boundary at cycle t follows the tick boundaries 0, 2,
    // ..., below t: a MicroVAX has ticked (t + 1) / 2 times.
    ASSERT_EQ(gated.size(), 20'000u / 7 + 1);
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        for (const auto &row : gated)
            ASSERT_EQ(row[1 + 3 * cpu], (row[0] + 1) / 2) << row[0];
    }
}

TEST(Gating, LongComputeBurstIsWatchdogProgress)
{
    // A 50 K-tick compute step on a quiet bus: the gated processor
    // sleeps through it, yet each of its tick boundaries must count
    // as progress for a 10 K-cycle watchdog.
    std::vector<decltype(OneCpu(true).counts())> results;
    for (const bool gated : {true, false}) {
        OneCpu rig(gated);
        rig.source.steps = {CpuStep::makeCompute(50'000)};
        rig.sim.setWatchdog(10'000, /*throw_on_wedge=*/true);
        // Halts at cycle 100 000; an idle machine then wedges, so
        // stop well inside the next 10 K cycles.
        EXPECT_NO_THROW(rig.sim.run(100'010)) << "gated=" << gated;
        EXPECT_TRUE(rig.cpu->halted());
        EXPECT_EQ(rig.cpu->computeTickCount.value(), 50'000u);
        EXPECT_EQ(rig.cpu->tickCount.value(), 50'001u);  // + halt
        if (gated) {
            EXPECT_GT(rig.sim.cyclesFastForwarded(), 90'000u);
        }
        results.push_back(rig.counts());
    }
    EXPECT_EQ(results[0], results[1]);
}

TEST(Gating, LostCompletionWedgesAtTheSameCycle)
{
    const auto wedge = [](bool gated) {
        // The processor runs on a clock of its own, over a cache whose
        // bus is on the rig's clock, which never runs: the miss it
        // requests at cycle 20 never completes.
        Rig rig(rigConfig(ProtocolKind::Firefly, 2));
        Simulator sim;
        sim.setFastForward(gated);
        ScriptedSource source;
        source.steps = {CpuStep::makeCompute(10),
                        CpuStep::makeRef({0x100, RefType::DataRead, 0})};
        TraceCpu cpu(sim, *rig.caches[0], source, CpuTiming::microVax(),
                     "cpu0");
        sim.setWatchdog(5'000, /*throw_on_wedge=*/true);
        const auto counts = [&] {
            return std::make_tuple(sim.now(), cpu.tickCount.value(),
                                   cpu.computeTickCount.value(),
                                   cpu.memWaitTicks.value(),
                                   cpu.halted());
        };
        try {
            sim.run(100'000);
        } catch (const SimulationWedged &w) {
            EXPECT_TRUE(rig.bus.busy(rig.caches[0]));
            return std::make_pair(std::string(w.what()), counts());
        }
        ADD_FAILURE() << "watchdog did not fire, gated=" << gated;
        return std::make_pair(std::string(), counts());
    };
    const auto gated = wedge(true);
    const auto every = wedge(false);
    EXPECT_EQ(gated, every);
    EXPECT_NE(gated.first.find("(now 5020, last progress 20)"),
              std::string::npos)
        << gated.first;
    // Stalled from the tick after the issue through the wedge cycle.
    EXPECT_EQ(std::get<3>(gated.second), 2'500u);
}

TEST(Gating, FenceMidBurstHaltsOnTheNextBoundary)
{
    std::vector<decltype(OneCpu(true).counts())> results;
    for (const bool gated : {true, false}) {
        OneCpu rig(gated);
        rig.source.steps = {CpuStep::makeCompute(1'000)};
        // Fenced from an event in the middle of the run, while the
        // gated processor is asleep in its burst.
        rig.sim.events().schedule(101, [&] { rig.cpu->fence(); });
        rig.sim.run(200);
        // Boundaries 0..100 computed; the one at 102 halts.
        EXPECT_TRUE(rig.cpu->halted());
        EXPECT_EQ(rig.cpu->computeTickCount.value(), 51u);
        EXPECT_EQ(rig.cpu->tickCount.value(), 52u);
        results.push_back(rig.counts());
    }
    EXPECT_EQ(results[0], results[1]);
}

TEST(Gating, OfflineProcessorMatchesEveryCycleTicking)
{
    const auto offlined = [](bool gated) {
        FireflySystem sys(FireflyConfig::microVax(4));
        sys.simulator().setFastForward(gated);
        sys.attachSyntheticWorkload(SyntheticConfig{});
        sys.simulator().run(20'001);
        sys.offlineProcessor(2);
        const Cycle drained = sys.simulator().now();
        sys.simulator().run(20'000);
        EXPECT_TRUE(sys.cpu(2).halted());
        return std::make_pair(drained, statsJson(sys));
    };
    EXPECT_EQ(offlined(true), offlined(false));
}

TEST(SnoopFilter, NonHolderIsNeverProbedYetItsTagStoreIsBusy)
{
    // Cache 1 misses on A while the bystander's processor re-reads its
    // own line every cycle.  With cache 0 holding A the bus probes
    // cache 0 only; with no holder it probes nobody and sleeps through
    // the probe cycle.  Either way the bystander's tag store is busy in
    // exactly that cycle, on both paths.
    constexpr Addr kA = 0x1000;
    constexpr Addr kB = 0x2000;
    for (const bool holder : {true, false}) {
        for (const bool gated : {true, false}) {
            Rig rig(rigConfig(ProtocolKind::Firefly, 3));
            rig.sim.setFastForward(gated);
            Cache &bystander = *rig.caches[2];
            if (holder)
                rig.read(0, kA);
            rig.read(2, kB);  // nobody else holds B: no probe at all
            EXPECT_EQ(rig.bus.snoopCalls(), 0u);

            MBusPhaseLog log;
            obs::ScopedTraceSink attach(&log);
            std::vector<std::pair<Cycle, Cache::AccessOutcome>> pokes;
            CpuPhase poker(rig.sim, [&](Cycle now) {
                pokes.emplace_back(
                    now,
                    bystander.cpuAccess({kB, RefType::DataRead, 0}, {})
                        .outcome);
            });
            rig.read(1, kA);

            std::vector<Cycle> probes;
            for (const MBusPhase &phase : log.phases) {
                if (phase.name == "wdata+probe")
                    probes.push_back(phase.when);
            }
            EXPECT_EQ(rig.bus.snoopCalls(), holder ? 1u : 0u);
            ASSERT_EQ(probes.size(), 1u);
            ASSERT_FALSE(pokes.empty());
            for (const auto &[cycle, outcome] : pokes) {
                EXPECT_EQ(outcome == Cache::AccessOutcome::RetryTagBusy,
                          cycle == probes[0])
                    << "cycle " << cycle << " holder=" << holder
                    << " gated=" << gated;
            }
            EXPECT_EQ(bystander.tagBusyRetries.value(), 1u);
        }
    }
}

TEST(SnoopFilter, EveryProbeFindsAHolder)
{
    // Summed over committed transactions, the non-initiator caches
    // holding the line are exactly the caches the bus probed.  Under
    // MESI and Berkeley an invalidated line used to leave a stale
    // duplicate tag that drew a probe; the real tags leave none.
    for (const ProtocolKind kind :
         {ProtocolKind::Firefly, ProtocolKind::Dragon,
          ProtocolKind::WriteThroughInvalidate, ProtocolKind::Berkeley,
          ProtocolKind::Mesi}) {
        FireflyConfig cfg = FireflyConfig::microVax(4);
        cfg.protocol = kind;
        FireflySystem sys(cfg);
        sys.attachSyntheticWorkload(SyntheticConfig{});
        MBus &bus = sys.bus();
        const std::uint64_t probes_before = bus.snoopCalls();
        std::uint64_t holders = 0;
        std::uint64_t txns = 0;
        // The bus is serial: at a commit, every probe so far belongs
        // to this or an earlier committed transaction.
        std::uint64_t probes_at_commit = probes_before;
        bus.addCommitObserver([&](const MBusTransaction &txn) {
            ++txns;
            for (unsigned i = 0; i < sys.processorCount(); ++i) {
                const Cache &cache = sys.cache(i);
                if (&cache != txn.initiator && cache.holds(txn.addr))
                    ++holders;
            }
            probes_at_commit = bus.snoopCalls();
        });
        sys.simulator().run(50'000);
        EXPECT_GT(txns, 1000u) << toString(kind);
        EXPECT_GT(holders, 0u) << toString(kind);
        EXPECT_EQ(probes_at_commit - probes_before, holders)
            << toString(kind);
    }
}

namespace
{

constexpr Addr kLine = 0x1000;

/** A rig whose cache 1 is about to miss on kLine, which cache 0
 *  holds iff `holder`; the bus is idle. */
struct MissRig : Rig
{
    MissRig(bool gated, bool holder,
            ProtocolKind kind = ProtocolKind::Firefly)
        : Rig(rigConfig(kind, 3))
    {
        sim.setFastForward(gated);
        if (holder)
            read(0, kLine);
    }

    /** Cache 1's read of kLine, requested now: granted this cycle. */
    void
    requestMiss(Word *out = nullptr)
    {
        const auto r = caches[1]->cpuAccess(
            {kLine, RefType::DataRead, 0}, [out](Word w) {
                if (out)
                    *out = w;
            });
        ASSERT_EQ(r.outcome, Cache::AccessOutcome::Pending);
    }
};

} // namespace

TEST(BusWake, TicksAtGrantProbeIfAnotherHolderAndData)
{
    // A 1-word transaction: grant and data cycle, plus the probe cycle
    // only when another cache holds the line.  The bus is the rig's
    // only clocked component.
    for (const bool holder : {false, true}) {
        MissRig rig(/*gated=*/true, holder);
        const std::uint64_t before = rig.sim.ticksDispatched();
        const Cycle start = rig.sim.now();
        rig.read(1, kLine);
        EXPECT_EQ(rig.sim.now() - start, 4u) << "holder=" << holder;
        EXPECT_EQ(rig.sim.ticksDispatched() - before, holder ? 3u : 2u)
            << "holder=" << holder;
        EXPECT_EQ(rig.bus.snoopCalls(), holder ? 1u : 0u);
    }
}

TEST(BusWake, BusyCyclesExactWhenASliceEndsMidTransaction)
{
    // One-cycle run() slices from the grant: the slices ending at
    // grant + 1 and grant + 2 end while the gated bus sleeps.
    const auto sliced = [](bool gated, bool holder) {
        MissRig rig(gated, holder);
        const Cycle grant = rig.sim.now();
        const Cycle busy0 = rig.bus.busyCycles();
        const double cycles0 = rig.bus.stats().get("cycles");
        rig.requestMiss();
        std::vector<std::vector<double>> rows;
        for (int i = 0; i < 6; ++i) {
            rig.sim.run(1);
            rows.push_back(
                {static_cast<double>(rig.sim.now() - grant),
                 static_cast<double>(rig.bus.busyCycles() - busy0),
                 rig.bus.stats().get("cycles") - cycles0});
        }
        return rows;
    };
    const std::vector<std::vector<double>> expected = {
        {1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {5, 4, 5}, {6, 4, 6}};
    for (const bool holder : {false, true}) {
        EXPECT_EQ(sliced(true, holder), expected) << "holder=" << holder;
        EXPECT_EQ(sliced(false, holder), expected) << "holder=" << holder;
    }
}

TEST(BusWake, RequestWhileTheBusSleepsIsGrantedAfterTheCompletion)
{
    // Cache 2 requests at grant + 2, the MShared cycle, which the
    // gated bus sleeps through; it is granted the cycle after cache
    // 1's completion on both paths, and the bus still sleeps until
    // that completion.
    const auto grants = [](bool gated) {
        MissRig rig(gated, /*holder=*/false);
        MBusPhaseLog log;
        obs::ScopedTraceSink attach(&log);
        const Cycle grant = rig.sim.now();
        rig.sim.events().schedule(grant + 2, [&] {
            rig.caches[2]->cpuAccess({0x2000, RefType::DataRead, 0}, {});
        });
        rig.requestMiss();
        const std::uint64_t before = rig.sim.ticksDispatched();
        rig.sim.run(8);
        std::vector<Cycle> at;
        for (const MBusPhase &phase : log.phases) {
            if (phase.name == "arb+addr")
                at.push_back(phase.when - grant);
        }
        return std::make_pair(at, rig.sim.ticksDispatched() - before);
    };
    const auto gated = grants(true);
    EXPECT_EQ(gated.first, (std::vector<Cycle>{0, 4}));
    EXPECT_EQ(gated.second, 4u);  // two ticks per transaction
    EXPECT_EQ(grants(false).first, gated.first);
}

TEST(BusWake, HolderWriteHitInTheGrantCycleIsSupplied)
{
    // MESI: cache 0 holds kLine Exclusive, and its processor writes it
    // silently (E -> M) in the Cpu phase of the cycle cache 1's read is
    // granted.  The probe at grant + 1 sees M, so cache 0 supplies the
    // new value; a probe skipped or taken at the grant would see E and
    // let memory supply the stale one.
    constexpr Word kNew = 0xfeed;
    for (const bool gated : {true, false}) {
        MissRig rig(gated, /*holder=*/true, ProtocolKind::Mesi);
        ASSERT_EQ(rig.state(0, kLine), LineState::Valid);
        const Cycle grant = rig.sim.now();
        CpuPhase writer(rig.sim, [&](Cycle now) {
            if (now != grant)
                return;
            const auto r = rig.caches[0]->cpuAccess(
                {kLine, RefType::DataWrite, kNew}, {});
            EXPECT_EQ(r.outcome, Cache::AccessOutcome::Hit);
        });
        Word got = 0;
        rig.requestMiss(&got);
        rig.sim.run(4);
        EXPECT_EQ(got, kNew) << "gated=" << gated;
        EXPECT_EQ(rig.bus.stats().get("cache_supplied"), 1.0);
        EXPECT_EQ(rig.state(0, kLine), LineState::Shared);
        EXPECT_EQ(rig.state(1, kLine), LineState::Shared);
    }
}
