/**
 * @file
 * Tests for the parallel sweep harness (src/harness/) and the
 * thread-cleanliness it relies on: runSweep's threads, ordering and
 * exception contract, per-point seed derivation, the
 * thread_local observability context, and the headline guarantee -
 * a sweep's results are byte-identical however many workers ran it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/fuzz.hh"
#include "firefly/system.hh"
#include "harness/sweep.hh"
#include "obs/text_trace.hh"
#include "obs/trace.hh"

using namespace firefly;

namespace
{

TEST(RunSweep, ResultsInInputOrder)
{
    // Later points finish first (decreasing sleep), so any
    // completion-order bug would scramble the result vector.
    std::vector<int> configs;
    for (int i = 0; i < 16; ++i)
        configs.push_back(i);
    const auto results = harness::runSweep(
        configs,
        [](int c) {
            std::this_thread::sleep_for(
                std::chrono::microseconds((16 - c) * 200));
            return c * 10;
        },
        8);
    ASSERT_EQ(results.size(), configs.size());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(results[i], i * 10);
}

TEST(RunSweep, SerialWhenJobsIsOne)
{
    // jobs <= 1 must run on the calling thread, in input order - the
    // byte-identical-to-the-old-loop guarantee.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    const auto results = harness::runSweep(
        std::vector<int>{1, 2, 3},
        [&](int c) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(c);
            return c;
        },
        1);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(results, (std::vector<int>{1, 2, 3}));
}

TEST(RunSweep, MoreJobsThanConfigs)
{
    const auto results = harness::runSweep(
        std::vector<int>{7, 8}, [](int c) { return c + 1; }, 64);
    EXPECT_EQ(results, (std::vector<int>{8, 9}));
}

TEST(RunSweep, EmptySweep)
{
    const auto results = harness::runSweep(
        std::vector<int>{}, [](int c) { return c; }, 4);
    EXPECT_TRUE(results.empty());
}

TEST(RunSweep, ExceptionPropagatesToCaller)
{
    EXPECT_THROW(
        harness::runSweep(
            std::vector<int>{0, 1, 2, 3},
            [](int c) -> int {
                if (c == 2)
                    throw std::runtime_error("point 2 failed");
                return c;
            },
            4),
        std::runtime_error);
}

TEST(RunSweep, LowestIndexExceptionWinsRegardlessOfTiming)
{
    // Point 3 fails immediately, point 1 fails late: the rethrown
    // error must still be point 1's (serial order, not wall-clock).
    try {
        harness::runSweep(
            std::vector<int>{0, 1, 2, 3},
            [](int c) -> int {
                if (c == 1) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    throw std::runtime_error("late failure at 1");
                }
                if (c == 3)
                    throw std::runtime_error("early failure at 3");
                return c;
            },
            4);
        FAIL() << "expected a runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "late failure at 1");
    }
}

TEST(PointSeed, DeterministicAndSaltSensitive)
{
    const auto s = harness::pointSeed(42, 3, 7);
    EXPECT_EQ(s, harness::pointSeed(42, 3, 7));
    std::set<std::uint64_t> seeds{
        harness::pointSeed(42, 3, 7), harness::pointSeed(42, 7, 3),
        harness::pointSeed(42, 3, 8), harness::pointSeed(43, 3, 7),
        harness::pointSeed(42, 3),    harness::pointSeed(42),
    };
    EXPECT_EQ(seeds.size(), 6u) << "salt collisions";
    EXPECT_EQ(harness::pointSeed(42), 42u);
}

TEST(ObsContext, WorkersStartWithNoSink)
{
    // The sink context is thread_local: attaching on the test thread
    // must leave the sweep's threads unobserved (the zero-cost path).
    std::ostringstream os;
    obs::TextTraceSink sink({}, os);
    obs::ScopedTraceSink scoped(&sink);
    ASSERT_EQ(obs::traceSink(), &sink);

    const auto seen = harness::runSweep(
        std::vector<int>{0, 1},
        [](int) {
            return std::pair(std::this_thread::get_id(), obs::traceSink());
        },
        2);
    for (const auto &[thread, seen_sink] : seen) {
        EXPECT_NE(thread, std::this_thread::get_id());
        EXPECT_EQ(seen_sink, nullptr);
    }
}

TEST(ObsContext, PerThreadSinksAndTimestampsAreIsolated)
{
    // Two threads attach different sinks and publish different
    // timestamps; neither may observe the other's context.
    std::ostringstream os_a, os_b;
    obs::TextTraceSink sink_a({}, os_a), sink_b({}, os_b);
    std::atomic<bool> ok_a{false}, ok_b{false};
    std::thread a([&] {
        obs::ScopedTraceSink scoped(&sink_a);
        obs::publishTraceNow(111);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ok_a = obs::traceSink() == &sink_a && obs::traceNow() == 111;
    });
    std::thread b([&] {
        obs::ScopedTraceSink scoped(&sink_b);
        obs::publishTraceNow(222);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ok_b = obs::traceSink() == &sink_b && obs::traceNow() == 222;
    });
    a.join();
    b.join();
    EXPECT_TRUE(ok_a);
    EXPECT_TRUE(ok_b);
    EXPECT_EQ(obs::traceSink(), nullptr);
}

/** Build, run, and serialize one small simulation per point. */
std::string
simulatePoint(unsigned cpus)
{
    auto cfg = FireflyConfig::microVax(cpus);
    FireflySystem sys(cfg);
    SyntheticConfig workload;
    workload.seed = harness::pointSeed(1234, cpus);
    sys.attachSyntheticWorkload(workload);
    sys.run(0.002);
    std::ostringstream os;
    sys.stats().dumpJson(os);
    return os.str();
}

TEST(SweepDeterminism, StatsIdenticalAcrossJobCounts)
{
    // The acceptance contract: same sweep, same seeds => the full
    // stat tree of every point is byte-identical at --jobs 1 and
    // --jobs 4, whatever order the workers ran them in.
    const std::vector<unsigned> cpus = {1, 2, 3, 4, 5, 6};
    const auto serial = harness::runSweep(
        cpus, [](unsigned np) { return simulatePoint(np); }, 1);
    const auto parallel = harness::runSweep(
        cpus, [](unsigned np) { return simulatePoint(np); }, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "point " << i;
    // And the points really differ from one another (the seeds and
    // configs are per-point, not copies of one machine).
    EXPECT_NE(serial[0], serial[1]);
}

TEST(SweepDeterminism, RepeatedParallelRunsAgree)
{
    const std::vector<unsigned> cpus = {2, 4};
    const auto first = harness::runSweep(
        cpus, [](unsigned np) { return simulatePoint(np); }, 2);
    const auto second = harness::runSweep(
        cpus, [](unsigned np) { return simulatePoint(np); }, 2);
    EXPECT_EQ(first, second);
}

/** One full machine, serialized, with fast-forward on or forced off.
 *  The workload halts after a burst so the run has a long idle tail -
 *  the span the fast path actually skips. */
std::string
runSystemStats(bool fast_forward)
{
    auto cfg = FireflyConfig::microVax(4);
    FireflySystem sys(cfg);
    SyntheticConfig workload;
    workload.seed = 0xF00D;
    workload.instructionLimit = 400;
    sys.attachSyntheticWorkload(workload);
    sys.simulator().setFastForward(fast_forward);
    sys.run(0.003);
    std::ostringstream os;
    sys.stats().dumpJson(os);
    return os.str();
}

TEST(FastForwardDeterminism, FullSystemStatsByteIdentical)
{
    // The tentpole invariant: skipping idle cycles changes nothing
    // observable.  Every counter, histogram bucket, and formula in
    // the full system stat tree is byte-identical either way.
    EXPECT_EQ(runSystemStats(true), runSystemStats(false));
}

TEST(FastForwardDeterminism, FuzzCorpusWithFaultsAgrees)
{
    // The fuzz machine (own Simulator, DMA events, fault injection,
    // throwing watchdog) must behave identically with the fast path
    // forced off, as the perf lane's --no-fast-forward does.
    check::FuzzConfig cfg;
    cfg.seed = 0xFA57;
    cfg.steps = 1200;
    cfg.recordLoads = true;
    cfg.faults.enabled = true;
    cfg.faults.rates.busParity = 0.01;
    cfg.faults.rates.eccSingle = 0.01;
    cfg.faults.rates.deviceTimeout = 0.005;

    const auto fast = check::runFuzz(cfg);
    cfg.onBuilt = [](check::Rig &m) { m.sim.setFastForward(false); };
    const auto slow = check::runFuzz(cfg);

    EXPECT_EQ(fast.loadLog, slow.loadLog);
    EXPECT_EQ(fast.cycles, slow.cycles);
    EXPECT_EQ(fast.loads, slow.loads);
    EXPECT_EQ(fast.stores, slow.stores);
    EXPECT_EQ(fast.dmaReads, slow.dmaReads);
    EXPECT_EQ(fast.dmaWrites, slow.dmaWrites);
    EXPECT_EQ(fast.parityErrors, slow.parityErrors);
    EXPECT_EQ(fast.parityRecovered, slow.parityRecovered);
    EXPECT_EQ(fast.eccCorrected, slow.eccCorrected);
    EXPECT_EQ(fast.deviceTimeouts, slow.deviceTimeouts);
}

} // namespace
