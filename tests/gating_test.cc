/**
 * @file
 * Due-cycle gating and the snoop filter must be invisible.
 *
 * A gated machine ticks a component only from the cycle it publishes
 * as due; processors sleep through compute bursts and memory stalls
 * and credit the skipped ticks by arithmetic.  Every observation
 * point must see exactly what a machine ticking every component every
 * cycle sees: StatSampler rows, the watchdog, fence() and processor
 * offlining.  Each test runs both ways and compares.  The bus's
 * snoop filter reads the caches' own tags: it must probe exactly the
 * caches that hold the line, without changing the tag-store
 * contention the others see.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/rig.hh"
#include "cpu/trace_cpu.hh"
#include "firefly/system.hh"
#include "obs/stat_sampler.hh"
#include "obs/trace.hh"

using namespace firefly;
using firefly::check::Rig;

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

    explicit OneCpu(bool gated) : Rig(ProtocolKind::Firefly, 2)
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

std::string
statsJson(FireflySystem &sys)
{
    std::ostringstream os;
    sys.stats().dumpJson(os);
    return os.str();
}

/** Sample times plus every channel, period 7 on a saturated
 *  4-CPU machine: most samples land inside a compute burst or a
 *  stall the gated processors are asleep in. */
std::pair<std::vector<Cycle>, std::vector<std::vector<double>>>
sampledRun(bool gated)
{
    FireflySystem sys(FireflyConfig::microVax(4));
    sys.simulator().setFastForward(gated);
    sys.attachSyntheticWorkload(SyntheticConfig{});
    obs::StatSampler sampler(sys.simulator(), 7);
    for (unsigned i = 0; i < 4; ++i) {
        for (const char *stat :
             {"ticks", "compute_ticks", "mem_wait_ticks"}) {
            sampler.addStat(sys.cpu(i).stats(), stat);
        }
    }
    sys.simulator().run(20'000);
    std::vector<std::vector<double>> series;
    for (std::size_t c = 0; c < sampler.channelCount(); ++c)
        series.push_back(sampler.series(c));
    return {sampler.sampleTimes(), series};
}

} // namespace

TEST(Gating, SamplerRowsMatchEveryCycleTicking)
{
    const auto gated = sampledRun(true);
    const auto every = sampledRun(false);
    EXPECT_EQ(gated.first, every.first);
    EXPECT_EQ(gated.second, every.second);

    // The Device-phase sample at cycle t counts the tick boundary at
    // t itself: a MicroVAX has ticked t/2 + 1 times.
    ASSERT_EQ(gated.first.size(), 20'000u / 7 + 1);
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        const auto &ticks = gated.second[3 * cpu];
        for (std::size_t row = 0; row < gated.first.size(); ++row)
            ASSERT_EQ(ticks[row], gated.first[row] / 2 + 1) << row;
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
        if (gated)
            EXPECT_GT(rig.sim.cyclesFastForwarded(), 90'000u);
        results.push_back(rig.counts());
    }
    EXPECT_EQ(results[0], results[1]);
}

TEST(Gating, LostCompletionWedgesAtTheSameCycle)
{
    const auto wedge = [](bool gated) {
        OneCpu rig(gated);
        rig.source.steps = {CpuStep::makeCompute(10),
                            CpuStep::makeRef({0x100, RefType::DataRead,
                                              0})};
        rig.sim.setWatchdog(5'000, /*throw_on_wedge=*/true);
        rig.sim.run(21);  // the miss is requested at cycle 20
        EXPECT_TRUE(rig.bus.busy(rig.caches[0].get()));
        // Lose the completion: the bus arbitrates once more (cycle
        // 21, progress), then leaves the clock for good.
        rig.sim.retireClocked(&rig.bus);
        try {
            rig.sim.run(100'000);
        } catch (const SimulationWedged &w) {
            return std::make_pair(std::string(w.what()), rig.counts());
        }
        ADD_FAILURE() << "watchdog did not fire, gated=" << gated;
        return std::make_pair(std::string(), rig.counts());
    };
    const auto gated = wedge(true);
    const auto every = wedge(false);
    EXPECT_EQ(gated, every);
    EXPECT_NE(gated.first.find("(now 5021, last progress 21)"),
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
    constexpr Addr kA = 0x1000;
    constexpr Addr kB = 0x2000;
    Rig rig(ProtocolKind::Firefly, 3);
    Cache &bystander = *rig.caches[2];
    rig.read(0, kA);
    rig.read(2, kB);  // nobody else holds B: no probe at all
    EXPECT_EQ(rig.bus.snoopCalls(), 0u);

    struct ProbeLog : obs::TraceSink
    {
        std::vector<Cycle> probes;
        void
        event(const obs::TraceEvent &ev) override
        {
            if (ev.kind == obs::EventKind::Instant &&
                ev.name == "wdata+probe")
                probes.push_back(ev.when);
        }
    } probe_log;
    obs::ScopedTraceSink attach(&probe_log);
    const std::vector<Cycle> &probes = probe_log.probes;
    // The bystander's processor re-reads its own line every cycle
    // while cache 1 misses on A, which only cache 0 holds.
    struct Poker : Clocked
    {
        Cache &cache;
        std::vector<std::pair<Cycle, Cache::AccessOutcome>> log;
        explicit Poker(Cache &c) : cache(c) {}
        void
        tick(Cycle now) override
        {
            log.emplace_back(
                now,
                cache.cpuAccess({kB, RefType::DataRead, 0}, {}).outcome);
        }
    } poker(bystander);
    rig.sim.addClocked(&poker, Phase::Cpu);
    rig.read(1, kA);

    EXPECT_EQ(rig.bus.snoopCalls(), 1u);  // cache 0 only
    ASSERT_EQ(probes.size(), 1u);
    ASSERT_FALSE(poker.log.empty());
    for (const auto &[cycle, outcome] : poker.log) {
        EXPECT_EQ(outcome == Cache::AccessOutcome::RetryTagBusy,
                  cycle == probes[0])
            << "cycle " << cycle;
    }
    EXPECT_EQ(bystander.tagBusyRetries.value(), 1u);
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
