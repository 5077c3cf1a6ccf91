/**
 * @file
 * Calibration tests: the synthetic VAX stream, run on a simulated
 * single-processor Firefly, must reproduce the aggregates the paper
 * states for its trace-driven characterisation: the reference mix,
 * M ~ 0.2, D ~ 0.25, ~420 K instructions/s, and ~36-40 % memory
 * interface occupancy.
 */

#include <gtest/gtest.h>

#include "cpu/synthetic_stream.hh"
#include "firefly/system.hh"

using namespace firefly;

namespace
{

/** One warmed-up single-CPU run; returns the system for inspection. */
std::unique_ptr<FireflySystem>
runSingleCpu(double seconds = 0.25)
{
    auto sys =
        std::make_unique<FireflySystem>(FireflyConfig::microVax(1));
    sys->attachSyntheticWorkload(SyntheticConfig{});
    // Long enough that cold-start fills are an afterthought.
    sys->run(seconds);
    return sys;
}

} // namespace

TEST(SyntheticStream, RefMixMatchesVax)
{
    SyntheticConfig cfg;
    SyntheticStream stream(cfg);
    std::uint64_t ir = 0, dr = 0, dw = 0;
    for (int i = 0; i < 300000; ++i) {
        const CpuStep step = stream.next();
        if (step.kind != CpuStep::Kind::Ref)
            continue;
        switch (step.ref.type) {
          case RefType::InstrRead: ++ir; break;
          case RefType::DataRead: ++dr; break;
          case RefType::DataWrite: ++dw; break;
        }
    }
    const double instrs =
        static_cast<double>(stream.instructionsCompleted());
    EXPECT_NEAR(ir / instrs, 0.95, 0.02);
    EXPECT_NEAR(dr / instrs, 0.78, 0.02);
    EXPECT_NEAR(dw / instrs, 0.40, 0.02);
}

TEST(SyntheticStream, ComputeTicksMatchTarget)
{
    SyntheticConfig cfg;
    SyntheticStream stream(cfg);
    std::uint64_t compute = 0;
    for (int i = 0; i < 200000; ++i) {
        const CpuStep step = stream.next();
        if (step.kind == CpuStep::Kind::Compute)
            compute += step.ticks;
    }
    const double instrs =
        static_cast<double>(stream.instructionsCompleted());
    EXPECT_NEAR(compute / instrs, cfg.computeTicksPerInstr, 0.05);
}

TEST(SyntheticStream, AddressesStayInRegions)
{
    SyntheticConfig cfg;
    SyntheticStream stream(cfg);
    for (int i = 0; i < 100000; ++i) {
        const CpuStep step = stream.next();
        if (step.kind != CpuStep::Kind::Ref)
            continue;
        const Addr a = step.ref.addr;
        ASSERT_EQ(a % 4, 0u);
        if (step.ref.type == RefType::InstrRead) {
            ASSERT_GE(a, cfg.codeBase);
            ASSERT_LT(a, cfg.codeBase + cfg.codeBytes);
        } else {
            const bool in_private = a >= cfg.privateBase &&
                a < cfg.privateBase + cfg.privateBytes;
            const bool in_shared = a >= SyntheticStream::sharedBase &&
                a < SyntheticStream::sharedBase + cfg.sharedBytes;
            ASSERT_TRUE(in_private || in_shared);
        }
    }
}

TEST(SyntheticStream, SharedWriteFractionMatchesS)
{
    SyntheticConfig cfg;
    cfg.writeSharedFrac = 0.1;
    SyntheticStream stream(cfg);
    std::uint64_t writes = 0, shared_writes = 0;
    for (int i = 0; i < 400000; ++i) {
        const CpuStep step = stream.next();
        if (step.kind != CpuStep::Kind::Ref ||
            step.ref.type != RefType::DataWrite)
            continue;
        ++writes;
        if (step.ref.addr >= SyntheticStream::sharedBase &&
            step.ref.addr < SyntheticStream::sharedBase + cfg.sharedBytes)
            ++shared_writes;
    }
    ASSERT_GT(writes, 0u);
    // Reuse re-touches shared addresses too, so the achieved
    // fraction sits near (not exactly at) the configured S.
    EXPECT_NEAR(static_cast<double>(shared_writes) / writes, 0.1,
                0.05);
}

TEST(SyntheticStream, InstructionLimitHalts)
{
    SyntheticConfig cfg;
    cfg.instructionLimit = 100;
    SyntheticStream stream(cfg);
    int steps = 0;
    while (stream.next().kind != CpuStep::Kind::Halt) {
        ASSERT_LT(++steps, 10000);
    }
    EXPECT_EQ(stream.instructionsCompleted(), 100u);
    EXPECT_EQ(stream.next().kind, CpuStep::Kind::Halt);  // stays halted
}

TEST(SyntheticCalibration, SingleCpuMatchesPaperAggregates)
{
    auto sys = runSingleCpu();
    Cache &cache = sys->cache(0);
    TraceCpu &cpu = sys->cpu(0);

    // Paper: M ~ 0.2 on the 16 KB cache with 4-byte lines.
    // (The calibrated generator lands slightly above the paper's
    // M=0.2 / D=0.25 once it also carries the spatial locality and
    // >16KB working set the other experiments need.)
    const double miss_rate = cache.stats().get("miss_rate");
    EXPECT_GT(miss_rate, 0.15);
    EXPECT_LT(miss_rate, 0.27);

    // Paper: D ~ 0.25 of cache entries dirty.
    const double dirty = cache.dirtyFraction();
    EXPECT_GT(dirty, 0.15);
    EXPECT_LT(dirty, 0.45);

    // TPI: one processor suffers only its own misses; the analytic
    // model puts it around 13.2 at the resulting light bus load.
    EXPECT_GT(cpu.tpi(), 12.2);
    EXPECT_LT(cpu.tpi(), 14.2);

    // ~400 K VAX instructions/s per processor.
    const double ips = cpu.instructions() / sys->seconds();
    EXPECT_GT(ips, 330e3);
    EXPECT_LT(ips, 430e3);

    // "kept its local memory interface busy about 40% of the time":
    // 2.13 refs * 2 ticks / TPI ~ 0.36.
    const double refs = static_cast<double>(sys->totalCpuRefs());
    const double occupancy = refs * 2.0 / cpu.ticksElapsed();
    EXPECT_GT(occupancy, 0.30);
    EXPECT_LT(occupancy, 0.45);
}

TEST(SyntheticCalibration, DeterministicAcrossRuns)
{
    auto a = runSingleCpu(0.05);
    auto b = runSingleCpu(0.05);
    EXPECT_EQ(a->totalCpuRefs(), b->totalCpuRefs());
    EXPECT_EQ(a->cache(0).fills.value(), b->cache(0).fills.value());
    EXPECT_DOUBLE_EQ(a->busLoad(), b->busLoad());
}
