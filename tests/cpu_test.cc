/**
 * @file
 * CPU timing-model tests: the paper's latency rules (hit 2 ticks,
 * clean miss +1 tick, dirty miss +victim write), the VAX mix, the
 * on-chip cache filter.
 */

#include <gtest/gtest.h>

#include <vector>

#include "check/rig.hh"
#include "cpu/onchip_cache.hh"
#include "cpu/trace_cpu.hh"
#include "cpu/vax_mix.hh"

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

struct CpuRig : Rig
{
    ScriptedSource source;
    std::unique_ptr<TraceCpu> cpu;

    explicit CpuRig(CpuTiming timing = CpuTiming::microVax(),
                    OnChipCache *onchip = nullptr)
        : Rig(ProtocolKind::Firefly, 2)
    {
        cpu = std::make_unique<TraceCpu>(sim, *caches[0], source,
                                         timing, "cpu0", onchip);
    }

    /** Run until the CPU halts; returns elapsed processor ticks. */
    std::uint64_t
    runToHalt()
    {
        while (!cpu->halted())
            sim.run(1);
        return cpu->ticksElapsed();
    }
};

MemRef
readRef(Addr a)
{
    return {a, RefType::DataRead, 0};
}

MemRef
writeRef(Addr a, Word v)
{
    return {a, RefType::DataWrite, v};
}

} // namespace

TEST(VaxMix, TotalsMatchPaper)
{
    VaxMix mix;
    EXPECT_NEAR(mix.total(), 2.13, 1e-9);
}

TEST(VaxMix, DrawMatchesMeans)
{
    VaxMix mix;
    Rng rng(3);
    double ir = 0, dr = 0, dw = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const InstrRefs refs = drawInstrRefs(mix, rng);
        ir += refs.instrReads;
        dr += refs.dataReads;
        dw += refs.dataWrites;
    }
    EXPECT_NEAR(ir / n, 0.95, 0.01);
    EXPECT_NEAR(dr / n, 0.78, 0.01);
    EXPECT_NEAR(dw / n, 0.40, 0.01);
}

TEST(TraceCpu, HitTakesTwoTicks)
{
    CpuRig rig;
    // Warm the line with one miss, then two hits; the final halt
    // fetch costs one tick.
    rig.source.steps = {CpuStep::makeRef(readRef(0x100)),
                        CpuStep::makeRef(readRef(0x100)),
                        CpuStep::makeRef(readRef(0x100))};
    const auto ticks = rig.runToHalt();
    // miss(3) + hit(2) + hit(2) + halt(1)
    EXPECT_EQ(ticks, 8u);
}

TEST(TraceCpu, CleanMissAddsOneTick)
{
    CpuRig rig;
    rig.source.steps = {CpuStep::makeRef(readRef(0x100))};
    EXPECT_EQ(rig.runToHalt(), 4u);  // miss(3) + halt(1)
}

TEST(TraceCpu, DirtyMissAddsVictimWrite)
{
    CpuRig rig;
    const Addr a = 0x100;
    const Addr conflict = a + 16 * 1024;
    rig.source.steps = {
        CpuStep::makeRef(writeRef(a, 1)),     // miss: WT-allocate (3)
        CpuStep::makeRef(writeRef(a, 2)),     // hit, silent dirty (2)
        CpuStep::makeRef(readRef(conflict)),  // victim write + fill (5)
    };
    EXPECT_EQ(rig.runToHalt(), 11u);  // 3 + 2 + 5 + halt(1)
    EXPECT_EQ(rig.caches[0]->victimWrites.value(), 1u);
    EXPECT_EQ(rig.memory.read(a), 2u);
}

TEST(TraceCpu, ComputeStepsCostTheirTicks)
{
    CpuRig rig;
    rig.source.steps = {CpuStep::makeCompute(5),
                        CpuStep::makeCompute(3)};
    EXPECT_EQ(rig.runToHalt(), 9u);  // 5 + 3 + halt(1)
    EXPECT_EQ(rig.cpu->computeTickCount.value(), 8u);
}

TEST(TraceCpu, ZeroComputeStepsAreFree)
{
    CpuRig rig;
    rig.source.steps = {CpuStep::makeCompute(0), CpuStep::makeCompute(0),
                        CpuStep::makeCompute(2)};
    EXPECT_EQ(rig.runToHalt(), 3u);
}

TEST(TraceCpu, MicroVaxTicksEveryTwoCycles)
{
    CpuRig rig;
    rig.source.steps = {CpuStep::makeCompute(10)};
    rig.runToHalt();
    // 11 ticks (10 compute + halt) at 200 ns each end at cycle ~22.
    EXPECT_GE(rig.sim.now(), 21u);
    EXPECT_LE(rig.sim.now(), 23u);
}

TEST(TraceCpu, CvaxTicksEveryCycle)
{
    CpuRig rig(CpuTiming::cvax());
    rig.source.steps = {CpuStep::makeCompute(10)};
    rig.runToHalt();
    EXPECT_GE(rig.sim.now(), 10u);
    EXPECT_LE(rig.sim.now(), 12u);
}

TEST(TraceCpu, CvaxMissAddsFourCycles)
{
    // "Cache misses add four CVAX cycles to the access time."
    CpuRig rig(CpuTiming::cvax());
    rig.source.steps = {CpuStep::makeRef(readRef(0x100)),  // miss
                        CpuStep::makeRef(readRef(0x100))}; // hit
    const auto ticks = rig.runToHalt();
    // hit = 2 cvax ticks; miss = 2 + 4; halt = 1.
    EXPECT_EQ(ticks, 9u);
}

TEST(TraceCpu, HaltStopsTicking)
{
    CpuRig rig;
    rig.source.steps = {};
    rig.runToHalt();
    const auto ticks = rig.cpu->ticksElapsed();
    rig.sim.run(100);
    EXPECT_EQ(rig.cpu->ticksElapsed(), ticks);
}

TEST(OnChipCache, FiltersInstructionReads)
{
    OnChipCache oc(OnChipCache::DataMode::InstructionsOnly, "oc");
    const MemRef iref{0x100, RefType::InstrRead, 0};
    EXPECT_FALSE(oc.access(iref));  // cold miss installs
    EXPECT_TRUE(oc.access(iref));   // now on chip
    EXPECT_TRUE(oc.access({0x104, RefType::InstrRead, 0}));  // same line
    EXPECT_EQ(oc.hits.value(), 2u);
    EXPECT_EQ(oc.misses.value(), 1u);
}

TEST(OnChipCache, InstructionsOnlyModeIgnoresData)
{
    OnChipCache oc(OnChipCache::DataMode::InstructionsOnly, "oc");
    const MemRef dref{0x200, RefType::DataRead, 0};
    EXPECT_FALSE(oc.access(dref));
    EXPECT_FALSE(oc.access(dref));  // never cached
    EXPECT_EQ(oc.hits.value(), 0u);
}

TEST(OnChipCache, DataModeCachesDataAndCountsStaleness)
{
    OnChipCache oc(OnChipCache::DataMode::InstructionsAndData, "oc");
    const MemRef dref{0x200, RefType::DataRead, 0};
    EXPECT_FALSE(oc.access(dref));
    EXPECT_TRUE(oc.access(dref));
    // Another processor writes the cached word on the bus: a real
    // non-snooping on-chip cache would now serve stale data.
    oc.observeBusWrite(0x200, 1);
    EXPECT_EQ(oc.staleIncidents.value(), 1u);
    EXPECT_FALSE(oc.access(dref));  // repaired by invalidation
}

TEST(OnChipCache, LocalWritesInvalidate)
{
    OnChipCache oc(OnChipCache::DataMode::InstructionsAndData, "oc");
    oc.access({0x300, RefType::DataRead, 0});
    EXPECT_TRUE(oc.access({0x300, RefType::DataRead, 0}));
    EXPECT_FALSE(oc.access({0x300, RefType::DataWrite, 1}));
    EXPECT_FALSE(oc.access({0x300, RefType::DataRead, 0}));  // dropped
}

TEST(TraceCpu, OnChipCacheShortensInstructionFetch)
{
    OnChipCache oc(OnChipCache::DataMode::InstructionsOnly, "oc");
    CpuRig rig(CpuTiming::cvax(), &oc);
    const MemRef iref{0x100, RefType::InstrRead, 0};
    rig.source.steps = {CpuStep::makeRef(iref),   // board miss (6)
                        CpuStep::makeRef(iref),   // on-chip hit (1)
                        CpuStep::makeRef(iref)};  // on-chip hit (1)
    EXPECT_EQ(rig.runToHalt(), 9u);  // 6 + 1 + 1 + halt(1)
    EXPECT_EQ(rig.cpu->onchipServed.value(), 2u);
}

TEST(TraceCpu, TagContentionCostsOneTick)
{
    // Two CPUs on one bus: CPU1 write-throughs constantly; CPU0 sees
    // occasional tag-busy retries.
    Rig rig(ProtocolKind::Firefly, 2);
    ScriptedSource src0, src1;
    // Make CPU1's stream shared-write-heavy: read then many writes
    // (each a write-through because CPU0 shares the line).
    src1.steps.push_back(CpuStep::makeRef(readRef(0x100)));
    for (int i = 0; i < 200; ++i)
        src1.steps.push_back(CpuStep::makeRef(writeRef(0x100, i)));
    for (int i = 0; i < 400; ++i)
        src0.steps.push_back(CpuStep::makeRef(readRef(0x100)));

    TraceCpu cpu0(rig.sim, *rig.caches[0], src0, CpuTiming::microVax(),
                  "cpu0");
    TraceCpu cpu1(rig.sim, *rig.caches[1], src1, CpuTiming::microVax(),
                  "cpu1");
    while (!cpu0.halted() || !cpu1.halted())
        rig.sim.run(1);
    EXPECT_GT(cpu0.tagRetryTicks.value() +
                  rig.caches[0]->tagBusyRetries.value(), 0u);
}
