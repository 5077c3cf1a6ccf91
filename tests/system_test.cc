/**
 * @file
 * Whole-machine tests: configuration validation, construction,
 * multiprocessor runs, and the headline 5-CPU behaviour.
 */

#include <gtest/gtest.h>

#include "firefly/system.hh"

using namespace firefly;

TEST(FireflyConfig, DefaultsMatchPaper)
{
    const auto mv = FireflyConfig::microVax();
    EXPECT_EQ(mv.processors, 5u);
    EXPECT_EQ(mv.effectiveGeometry().cacheBytes, 16u * 1024);
    EXPECT_EQ(mv.effectiveGeometry().lineBytes, 4u);
    EXPECT_EQ(mv.moduleBytes(), 4u * 1024 * 1024);
    EXPECT_FALSE(mv.onChipCacheEnabled);

    const auto cv = FireflyConfig::cvax();
    EXPECT_EQ(cv.effectiveGeometry().cacheBytes, 64u * 1024);
    EXPECT_EQ(cv.moduleBytes(), 32u * 1024 * 1024);
    EXPECT_TRUE(cv.onChipCacheEnabled);
}

TEST(FireflyConfigDeathTest, RejectsImpossibleMachines)
{
    auto too_much_memory = FireflyConfig::microVax(5);
    too_much_memory.memoryBytes = 32 * 1024 * 1024;  // > 24-bit space
    EXPECT_EXIT(too_much_memory.validate(),
                ::testing::ExitedWithCode(1), "at most 16 MB");

    auto no_cpus = FireflyConfig::microVax(0);
    EXPECT_EXIT(no_cpus.validate(), ::testing::ExitedWithCode(1),
                "1-16 processors");

    auto onchip_on_microvax = FireflyConfig::microVax(5);
    onchip_on_microvax.onChipCacheEnabled = true;
    EXPECT_EXIT(onchip_on_microvax.validate(),
                ::testing::ExitedWithCode(1), "no on-chip cache");

    auto one_name_short = FireflyConfig::microVax(2);
    one_name_short.cacheNames = {"only"};
    EXPECT_EXIT(one_name_short.validate(), ::testing::ExitedWithCode(1),
                "1 cache names for 2 processors");
}

TEST(FireflySystem, BuildsStandardMachine)
{
    FireflySystem sys(FireflyConfig::microVax(5));
    EXPECT_EQ(sys.processorCount(), 5u);
    EXPECT_EQ(sys.memory().sizeBytes(), 16u * 1024 * 1024);
    EXPECT_EQ(sys.memory().moduleCount(), 4u);
    EXPECT_EQ(sys.cache(0).numLines(), 4096u);
}

TEST(FireflySystem, CvaxMachineHasBiggerCachesAndMemory)
{
    auto cfg = FireflyConfig::cvax(5);
    cfg.memoryBytes = 128 * 1024 * 1024;
    FireflySystem sys(cfg);
    EXPECT_EQ(sys.cache(0).numLines(), 16384u);
    EXPECT_EQ(sys.memory().moduleCount(), 4u);
    EXPECT_NE(sys.onChip(0), nullptr);
}

TEST(FireflySystem, TopologyArtDescribesTheMachine)
{
    FireflySystem sys(FireflyConfig::microVax(3));
    const std::string art = sys.topologyArt();
    EXPECT_NE(art.find("MBus"), std::string::npos);
    EXPECT_NE(art.find("QBus"), std::string::npos);
    EXPECT_NE(art.find("CPU  2"), std::string::npos);
    EXPECT_NE(art.find("3 processors"), std::string::npos);
}

TEST(FireflySystem, MultiprocessorRunSharesTheBus)
{
    FireflySystem sys(FireflyConfig::microVax(5));
    SyntheticConfig workload;
    sys.attachSyntheticWorkload(workload);
    sys.run(0.1);

    // Every CPU made progress.
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_GT(sys.cpu(i).instructions(), 10000u);

    // The paper's standard machine: bus load around 0.4, each CPU at
    // ~85% of no-wait speed (generous bands for the synthetic).
    EXPECT_GT(sys.busLoad(), 0.25);
    EXPECT_LT(sys.busLoad(), 0.55);
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_GT(sys.cpu(i).tpi(), 12.0);
        EXPECT_LT(sys.cpu(i).tpi(), 16.5);
    }
}

TEST(FireflySystem, SharedRegionActuallyShares)
{
    FireflySystem sys(FireflyConfig::microVax(4));
    SyntheticConfig workload;
    sys.attachSyntheticWorkload(workload);
    sys.run(0.05);
    // Conditional write-through fires: some writes met MShared.
    std::uint64_t wt_shared = 0;
    for (unsigned i = 0; i < 4; ++i)
        wt_shared += sys.cache(i).wtMshared.value();
    EXPECT_GT(wt_shared, 0u);
}

TEST(FireflySystem, FixedPriorityFavoursLowerNumberedCpus)
{
    FireflySystem sys(FireflyConfig::microVax(7));
    SyntheticConfig workload;
    sys.attachSyntheticWorkload(workload);
    sys.run(0.1);
    // Under contention the lowest-priority (highest index) processor
    // must not be faster than the highest-priority one.
    EXPECT_LE(sys.cpu(6).instructions(),
              sys.cpu(0).instructions() * 105 / 100);
}

TEST(FireflySystem, MoreProcessorsMoreThroughputLessPerCpu)
{
    auto run = [](unsigned np) {
        FireflySystem sys{FireflyConfig::microVax(np)};
        sys.attachSyntheticWorkload(SyntheticConfig{});
        sys.run(0.08);
        std::uint64_t instrs = 0;
        for (unsigned i = 0; i < np; ++i)
            instrs += sys.cpu(i).instructions();
        return std::pair{instrs, sys.busLoad()};
    };
    const auto [i1, l1] = run(1);
    const auto [i5, l5] = run(5);
    EXPECT_GT(i5, i1 * 4);       // scaling is good at five CPUs
    EXPECT_LT(i5, i1 * 5);       // but not perfect
    EXPECT_GT(l5, l1 * 3);       // the bus absorbs the load
}

TEST(FireflySystem, RunToCompletionHonoursInstructionLimit)
{
    FireflySystem sys(FireflyConfig::microVax(2));
    SyntheticConfig workload;
    workload.instructionLimit = 5000;
    sys.attachSyntheticWorkload(workload);
    sys.runToCompletion();
    EXPECT_TRUE(sys.allHalted());
    EXPECT_EQ(sys.cpu(0).instructions(), 5000u);
    EXPECT_EQ(sys.cpu(1).instructions(), 5000u);
}

