/**
 * @file
 * The option parse every bench binary shares (bench/bench_util.hh):
 * --debug-flags names the text sink's categories, and a name that is
 * no category is a usage error.  Numeric flag values (--jobs, the
 * fuzz corpus size, the fault seed, the perf repetitions) parse whole
 * or not at all: a sign or trailing text is a usage error, caught
 * before any bench runs with the bad value.  --check turns the
 * coherence checker on in the machines a bench builds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"

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

    bench::ObsOptions &global = bench::obsOptions();
    const bool saved = global.check;
    global.check = false;
    EXPECT_FALSE(bench::checkedConfig(FireflyConfig::microVax(2))
                     .coherenceCheck);
    check::Rig rig(ProtocolKind::Firefly);
    EXPECT_EQ(bench::rigChecker(rig, ProtocolKind::Firefly), nullptr);
    global.check = true;
    EXPECT_TRUE(bench::checkedConfig(FireflyConfig::microVax(2))
                    .coherenceCheck);
    const auto checker = bench::rigChecker(rig, ProtocolKind::Firefly);
    ASSERT_NE(checker, nullptr);
    global.check = saved;
    rig.write(0, 0x100, 7);
    EXPECT_EQ(rig.read(1, 0x100), 7u);
    EXPECT_GT(checker->loadsChecked.value(), 0u);
    EXPECT_GT(checker->txnsObserved.value(), 0u);
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

} // namespace
