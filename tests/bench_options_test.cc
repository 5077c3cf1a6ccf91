/**
 * @file
 * The option parse every bench binary shares (bench/bench_util.hh):
 * --debug-flags names the text sink's categories, and a name that is
 * no category is a usage error.  Numeric flag values (--jobs, the
 * fuzz corpus size, the fault seed, the perf repetitions) parse whole
 * or not at all: a sign or trailing text is a usage error, caught
 * before any bench runs with the bad value.  --check turns the
 * coherence checker on in the machines a bench builds.  The
 * --stats-json file holds the last export in serial order, however
 * many --jobs ran the sweep.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "check/rig.hh"

using namespace firefly;

namespace
{

/** Parse `args` (after the program name) into fresh options. */
std::optional<int>
parse(bench::ObsOptions &opts, std::initializer_list<const char *> args,
      const std::vector<bench::ExtraFlag> &extras = {})
{
    std::vector<std::string> storage{"bench"};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &arg : storage)
        argv.push_back(arg.data());
    return bench::parseOptions(opts, static_cast<int>(argv.size()),
                               argv.data(), extras);
}

using Flags = std::vector<std::string>;

TEST(LoggingFlags, ResetClearsEverything)
{
    // No flag outlives its parse: there is no process-wide registry.
    bench::ObsOptions first;
    EXPECT_EQ(parse(first, {"--debug-flags=MBus,Cache"}), std::nullopt);
    EXPECT_EQ(first.textFlags, (Flags{"MBus", "Cache"}));
    bench::ObsOptions second;
    EXPECT_EQ(parse(second, {}), std::nullopt);
    EXPECT_TRUE(second.textFlags.empty());
}

TEST(LoggingFlags, EmptyTokensAreAllowed)
{
    bench::ObsOptions opts;
    EXPECT_EQ(parse(opts, {"--debug-flags=,MBus,,Cache,"}), std::nullopt);
    EXPECT_EQ(opts.textFlags, (Flags{"MBus", "Cache"}));

    bench::ObsOptions commas;
    EXPECT_EQ(parse(commas, {"--debug-flags=,"}), std::nullopt);
    EXPECT_TRUE(commas.textFlags.empty());
}

TEST(LoggingFlags, UnknownFlagIsAUsageError)
{
    bench::ObsOptions opts;
    EXPECT_EQ(parse(opts, {"--debug-flags=MBus,Mbus"}), 2);

    bench::ObsOptions bogus;
    EXPECT_EQ(parse(bogus, {"--debug-flags=Cache,Bogus"}), 2);
}

TEST(LoggingFlags, EveryCategoryIsAFlag)
{
    std::string all;
    for (const char *category : obs::kCategories)
        all += std::string(category) + ",";
    const std::string arg = "--debug-flags=" + all;
    bench::ObsOptions opts;
    EXPECT_EQ(parse(opts, {arg.c_str()}), std::nullopt);
    EXPECT_EQ(opts.textFlags.size(), std::size(obs::kCategories));
}

TEST(NumericFlags, UnsignedParsesWholeOrNothing)
{
    EXPECT_EQ(bench::parseUnsigned("8"), 8u);
    EXPECT_EQ(bench::parseUnsigned("0xF1EF7"), 0xF1EF7u);
    EXPECT_EQ(bench::parseUnsigned("18446744073709551615"), UINT64_MAX);
    for (const char *bad : {"", "-1", "+3", " 3", "3x", "3 ", "0x",
                            "1.5", "18446744073709551616"}) {
        EXPECT_EQ(bench::parseUnsigned(bad), std::nullopt) << bad;
    }
}

TEST(NumericFlags, NumberParsesWholeOrNothing)
{
    EXPECT_EQ(bench::parseNumber("0.05"), 0.05);
    EXPECT_EQ(bench::parseNumber(".5"), 0.5);
    EXPECT_EQ(bench::parseNumber("1e-3"), 1e-3);
    for (const char *bad : {"", "-0.5", "+1", " 1", "0.1x", "nan",
                            "inf", "1e400"}) {
        EXPECT_EQ(bench::parseNumber(bad), std::nullopt) << bad;
    }
}

TEST(NumericFlags, CountParsesWithinItsBounds)
{
    // The examples' positional counts: processors up to what
    // FireflyConfig::validate accepts.
    const unsigned max = FireflyConfig::maxProcessors;
    EXPECT_EQ(bench::parseCount("1", max), 1u);
    EXPECT_EQ(bench::parseCount("16", max), 16u);
    EXPECT_EQ(bench::parseCount("4294967295"), 4294967295u);
    for (const char *bad : {"", "0", "-1", "4x", "17", " 4"})
        EXPECT_EQ(bench::parseCount(bad, max), std::nullopt) << bad;
    EXPECT_EQ(bench::parseCount("4294967296"), std::nullopt);
}

TEST(CheckFlag, TurnsTheCheckerOnInEveryBuiltMachine)
{
    bench::ObsOptions opts;
    EXPECT_EQ(parse(opts, {}), std::nullopt);
    EXPECT_FALSE(opts.check);
    EXPECT_EQ(parse(opts, {"--check"}), std::nullopt);
    EXPECT_TRUE(opts.check);
    bench::ObsOptions takes_no_value;
    EXPECT_EQ(parse(takes_no_value, {"--check=1"}), 2);

    // The one flag path: a rig-shaped config through checkedConfig
    // is a checked machine with fast-forward off.
    bench::ObsOptions &global = bench::obsOptions();
    const bench::ObsOptions saved = std::exchange(global, {});
    EXPECT_FALSE(bench::checkedConfig(FireflyConfig::microVax(2))
                     .coherenceCheck);
    EXPECT_EQ(parse(global, {"--check", "--no-fast-forward"}),
              std::nullopt);
    EXPECT_TRUE(bench::checkedConfig(FireflyConfig::microVax(2))
                    .coherenceCheck);
    check::Rig rig(
        bench::checkedConfig(check::rigConfig(ProtocolKind::Firefly)));
    global = saved;
    ASSERT_NE(rig.machine.checker(), nullptr);
    EXPECT_FALSE(rig.machine.simulator().fastForwardEnabled());
    rig.write(0, 0x100, 7);
    EXPECT_EQ(rig.read(1, 0x100), 7u);
    EXPECT_GT(rig.machine.checker()->loadsChecked.value(), 0u);
    EXPECT_GT(rig.machine.checker()->txnsObserved.value(), 0u);
}

TEST(NumericFlags, BadValuesAreUsageErrors)
{
    // firefly_fuzz's --seeds= and --steps= are count flags: the bad
    // value is rejected by the parse, so nothing ever runs with it.
    unsigned seeds = 8;
    const std::vector<bench::ExtraFlag> extras = {
        bench::countFlag("--seeds=", "seeds per cell", seeds),
    };
    for (const char *bad : {"--seeds=-1", "--seeds=3x", "--seeds=0",
                            "--seeds=4294967296"}) {
        bench::ObsOptions opts;
        EXPECT_EQ(parse(opts, {bad}, extras), 2) << bad;
        EXPECT_EQ(seeds, 8u) << bad;
    }
    bench::ObsOptions opts;
    EXPECT_EQ(parse(opts, {"--seeds=10"}, extras), std::nullopt);
    EXPECT_EQ(seeds, 10u);

    for (const char *bad : {"--jobs=-1", "--jobs=4x", "--jobs= 4"}) {
        bench::ObsOptions jobs;
        EXPECT_EQ(parse(jobs, {bad}), 2) << bad;
    }
}

/** A one-counter stat tree holding `n`: which export it is. */
struct PointStats
{
    explicit PointStats(unsigned n)
    {
        group.addCounter(&value, "value", "which export this is");
        value += n;
    }

    StatGroup group{"point"};
    Counter value;
};

std::string
pointJson(unsigned n)
{
    std::ostringstream os;
    PointStats(n).group.dumpJson(os);
    return os.str();
}

void
exportPoint(unsigned n)
{
    bench::exportStats(PointStats(n).group);
}

/** Run `experiment` through runBenchMain with --stats-json and
 *  --jobs=4; returns the file it wrote. */
std::string
exportedBy(void (*experiment)())
{
    const std::string path = ::testing::TempDir() + "stats_export_" +
                             std::to_string(::getpid()) + ".json";
    std::remove(path.c_str());
    std::vector<std::string> storage{"bench", "--stats-json=" + path,
                                     "--jobs=4"};
    std::vector<char *> argv;
    for (std::string &arg : storage)
        argv.push_back(arg.data());
    EXPECT_EQ(bench::runBenchMain(static_cast<int>(argv.size()),
                                  argv.data(), experiment),
              0);
    bench::obsOptions() = bench::ObsOptions{};
    std::ifstream is(path);
    std::ostringstream json;
    json << is.rdbuf();
    std::remove(path.c_str());
    return json.str();
}

const std::vector<unsigned> kPoints = {0, 1, 2, 3};

TEST(StatsExport, LastExportInSerialOrderWins)
{
    // Four points on four workers, finishing in reverse order: the
    // file holds the last point in input order.
    EXPECT_EQ(exportedBy([] {
                  bench::runSweep(kPoints, [](unsigned n) {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(10 * (4 - n)));
                      exportPoint(n);
                      return n;
                  });
              }),
              pointJson(3));
    // A sweep whose points export nothing keeps the export before it.
    EXPECT_EQ(exportedBy([] {
                  exportPoint(100);
                  bench::runSweep(kPoints, [](unsigned n) { return n; });
              }),
              pointJson(100));
    // A serial export after a sweep wins over the sweep's.
    EXPECT_EQ(exportedBy([] {
                  bench::runSweep(kPoints, [](unsigned n) {
                      exportPoint(n);
                      return n;
                  });
                  exportPoint(200);
              }),
              pointJson(200));
}

} // namespace
