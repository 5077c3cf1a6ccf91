/**
 * @file
 * Topaz runtime tests: scheduler policies, thread primitives, the
 * exerciser workloads, and the end-to-end mutual-exclusion +
 * coherence check (lock-protected counters incremented through real
 * read-modify-writes against the simulated memory system).
 */

#include <gtest/gtest.h>

#include "firefly/system.hh"
#include "topaz/arena.hh"
#include "topaz/scheduler.hh"
#include "topaz/workloads.hh"

using namespace firefly;

namespace
{

/** Build a machine + runtime and wire the ports to the CPUs. */
struct TopazRig
{
    FireflySystem sys;
    TopazRuntime runtime;

    explicit TopazRig(unsigned cpus, TopazConfig cfg = {})
        : sys(FireflyConfig::microVax(cpus)),
          runtime((cfg.cpus = cpus, cfg))
    {
    }

    void
    start()
    {
        std::vector<RefSource *> sources;
        for (unsigned i = 0; i < sys.processorCount(); ++i)
            sources.push_back(&runtime.port(i));
        sys.attachSources(sources);
    }

    void
    runToCompletion(Cycle max_cycles = 400'000'000)
    {
        sys.runToCompletion(max_cycles);
    }

    Word
    counterValue(unsigned idx)
    {
        // Flush caches so memory holds the committed value.
        for (unsigned i = 0; i < sys.processorCount(); ++i)
            sys.cache(i).flushFunctional();
        return sys.memory().read(runtime.counterAddr(idx));
    }
};

} // namespace

TEST(MemoryArena, AllocatesAlignedAndTracks)
{
    MemoryArena arena(0x1000, 0x100);
    const Addr a = arena.allocate(10, "a");  // rounds to 12
    const Addr b = arena.allocate(4, "b");
    EXPECT_EQ(a, 0x1000u);
    EXPECT_EQ(b, 0x100cu);
    EXPECT_EQ(arena.used(), 16u);
    EXPECT_EQ(arena.regions().size(), 2u);
    EXPECT_EQ(arena.regions()[0].label, "a");
}

TEST(MemoryArenaDeathTest, ExhaustionIsFatal)
{
    MemoryArena arena(0x1000, 16);
    arena.allocate(16, "all");
    EXPECT_EXIT(arena.allocate(4, "more"),
                ::testing::ExitedWithCode(1), "exhausted");
}

TEST(Scheduler, AffinityPrefersOwnQueue)
{
    TopazScheduler sched(2, SchedulerPolicy::Affinity);
    sched.makeReady(1, 0);
    sched.makeReady(2, 1);
    EXPECT_EQ(sched.pick(0), 1);
    EXPECT_EQ(sched.pick(1), 2);
    EXPECT_EQ(sched.steals.value(), 0u);
}

TEST(Scheduler, AffinityStealsWhenIdle)
{
    TopazScheduler sched(2, SchedulerPolicy::Affinity);
    sched.makeReady(1, 0);
    sched.makeReady(2, 0);
    EXPECT_EQ(sched.pick(1), 1);  // stolen from CPU 0's queue
    EXPECT_EQ(sched.steals.value(), 1u);
}

TEST(Scheduler, GlobalIsFifo)
{
    TopazScheduler sched(3, SchedulerPolicy::Global);
    sched.makeReady(5, 0);
    sched.makeReady(6, 1);
    EXPECT_EQ(sched.pick(2), 5);
    EXPECT_EQ(sched.pick(0), 6);
    EXPECT_EQ(sched.pick(1), -1);
}

TEST(TopazRuntime, SingleThreadComputeRunsToCompletion)
{
    TopazRig rig(1);
    BehaviorProgram prog;
    prog.iterations = 3;
    prog.body = {BehaviorOp::compute(100),
                 BehaviorOp::touchPrivate(10)};
    rig.runtime.addThread(rig.runtime.registerProgram(prog));
    rig.start();
    rig.runToCompletion();
    EXPECT_TRUE(rig.sys.allHalted());
    EXPECT_TRUE(rig.runtime.done());
    EXPECT_GE(rig.runtime.userInstructions.value(), 300u);
    EXPECT_EQ(rig.runtime.deadlockBreaks.value(), 0u);
}

TEST(TopazRuntime, LockProtectedCounterIsExact)
{
    // The headline end-to-end check: concurrent threads increment a
    // shared counter under a mutex, with the increment implemented
    // as a real read-modify-write against the coherent memory
    // system.  Any coherence or mutual-exclusion bug loses updates.
    TopazRig rig(4);
    const unsigned threads = 6;
    const std::uint64_t iters = 50;
    for (unsigned t = 0; t < threads; ++t) {
        BehaviorProgram prog;
        prog.iterations = iters;
        prog.body = {BehaviorOp::lockAcquire(0),
                     BehaviorOp::incrementCounter(0),
                     BehaviorOp::lockRelease(0),
                     BehaviorOp::compute(20)};
        rig.runtime.addThread(rig.runtime.registerProgram(prog));
    }
    rig.start();
    rig.runToCompletion();
    ASSERT_TRUE(rig.runtime.done());
    EXPECT_EQ(rig.counterValue(0), threads * iters);
    EXPECT_EQ(rig.runtime.deadlockBreaks.value(), 0u);
    EXPECT_GT(rig.runtime.lockContentions.value(), 0u);
}

TEST(TopazRuntime, UnlockedCounterLosesUpdates)
{
    // The control experiment: without the mutex, concurrent
    // read-modify-writes race and (with many CPUs) lose updates.
    // This demonstrates the increments really do flow through the
    // simulated memory system rather than an oracle.
    TopazRig rig(6);
    const unsigned threads = 6;
    const std::uint64_t iters = 400;
    for (unsigned t = 0; t < threads; ++t) {
        BehaviorProgram prog;
        prog.iterations = iters;
        prog.body = {BehaviorOp::incrementCounter(1)};
        rig.runtime.addThread(rig.runtime.registerProgram(prog));
    }
    rig.start();
    rig.runToCompletion();
    ASSERT_TRUE(rig.runtime.done());
    EXPECT_LT(rig.counterValue(1), threads * iters);
    EXPECT_GT(rig.counterValue(1), 0u);
}

TEST(TopazRuntime, ForkAndJoin)
{
    TopazRig rig(2);
    ParallelMakeParams params;
    params.jobs = 4;
    params.jobInstructions = 500;
    buildParallelMake(rig.runtime, params);
    rig.start();
    rig.runToCompletion();
    EXPECT_TRUE(rig.runtime.done());
    EXPECT_EQ(rig.runtime.forks.value(), 4u);
    EXPECT_EQ(rig.runtime.joins.value(), 4u);
    EXPECT_EQ(rig.runtime.deadlockBreaks.value(), 0u);
}

TEST(TopazRuntime, ExerciserCountersExactUnderLoad)
{
    TopazRig rig(4);
    ExerciserParams params;
    params.threads = 8;
    params.iterations = 40;
    const auto expected = buildThreadsExerciser(rig.runtime, params);
    rig.start();
    rig.runToCompletion();
    ASSERT_TRUE(rig.runtime.done());

    std::uint64_t total = 0;
    for (unsigned c = 0; c < TopazConfig::counters; ++c)
        total += rig.counterValue(c);
    EXPECT_EQ(total, expected);
    EXPECT_EQ(rig.runtime.deadlockBreaks.value(), 0u);

    // The exerciser must behave as the paper describes: lots of
    // blocking and rescheduling.
    EXPECT_GT(rig.runtime.waits.value(), 100u);
    EXPECT_GT(rig.runtime.contextSwitches.value(), 200u);
}

TEST(TopazRuntime, ExerciserGeneratesHeavySharing)
{
    TopazRig rig(5);
    ExerciserParams params;
    params.threads = 10;
    params.iterations = 60;
    buildThreadsExerciser(rig.runtime, params);
    rig.start();
    rig.runToCompletion();

    // A large fraction of write-throughs must receive MShared - the
    // Table 2 signature (33% of one CPU's bus writes in the 5-CPU
    // measured run).
    std::uint64_t wt_shared = 0, wt_clear = 0;
    for (unsigned i = 0; i < 5; ++i) {
        wt_shared += rig.sys.cache(i).wtMshared.value();
        wt_clear += rig.sys.cache(i).wtNoMshared.value();
    }
    EXPECT_GT(wt_shared, 0u);
    EXPECT_GT(static_cast<double>(wt_shared) / (wt_shared + wt_clear),
              0.3);
}

TEST(TopazRuntime, GlobalPolicyMigratesMoreThanAffinity)
{
    auto migrations = [](SchedulerPolicy policy) {
        TopazConfig cfg;
        cfg.policy = policy;
        TopazRig rig(4, cfg);
        ExerciserParams params;
        params.threads = 8;
        params.iterations = 50;
        buildThreadsExerciser(rig.runtime, params);
        rig.start();
        rig.runToCompletion();
        EXPECT_TRUE(rig.runtime.done());
        return rig.runtime.migrations.value();
    };
    const auto affinity = migrations(SchedulerPolicy::Affinity);
    const auto global = migrations(SchedulerPolicy::Global);
    EXPECT_LT(affinity, global);
}

TEST(TopazRuntime, DeterministicGivenSeed)
{
    auto run = [] {
        TopazRig rig(3);
        ExerciserParams params;
        params.threads = 6;
        params.iterations = 30;
        buildThreadsExerciser(rig.runtime, params);
        rig.start();
        rig.runToCompletion();
        return std::tuple{rig.sys.simulator().now(),
                          rig.runtime.contextSwitches.value(),
                          rig.runtime.migrations.value(),
                          rig.sys.bus().busyCycles()};
    };
    EXPECT_EQ(run(), run());
}

TEST(TopazRuntime, SliceForcesYieldOnLongCompute)
{
    TopazRig rig(1);
    // Two compute-only threads on one CPU, each twenty time slices
    // long: without slicing, the first would run to completion before
    // the second starts.
    for (int t = 0; t < 2; ++t) {
        BehaviorProgram prog;
        prog.iterations = 1;
        prog.body = {BehaviorOp::compute(static_cast<std::uint32_t>(
            20 * TopazRuntime::sliceInstructions))};
        rig.runtime.addThread(rig.runtime.registerProgram(prog));
    }
    rig.start();
    rig.runToCompletion();
    EXPECT_TRUE(rig.runtime.done());
    EXPECT_GT(rig.runtime.yields.value(), 10u);
}

TEST(TopazRuntime, MoreCpusFinishTheMakeFaster)
{
    auto elapsed = [](unsigned cpus) {
        TopazRig rig(cpus);
        ParallelMakeParams params;
        params.jobs = 6;
        params.jobInstructions = 3000;
        buildParallelMake(rig.runtime, params);
        rig.start();
        rig.runToCompletion();
        EXPECT_TRUE(rig.runtime.done());
        return rig.sys.simulator().now();
    };
    const auto one = elapsed(1);
    const auto four = elapsed(4);
    EXPECT_LT(four * 2, one);  // at least 2x speedup on 4 CPUs
}
