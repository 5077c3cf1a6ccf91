/**
 * @file
 * The option parse every bench binary shares (bench/bench_util.hh):
 * --debug-flags and the FIREFLY_DEBUG environment variable together
 * name the text sink's categories, and a name that is no category is
 * a usage error.
 */

#include <gtest/gtest.h>

#include <cstdlib>
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
parse(bench::ObsOptions &opts, std::initializer_list<const char *> args)
{
    std::vector<std::string> storage{"bench"};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &arg : storage)
        argv.push_back(arg.data());
    return bench::parseOptions(opts, static_cast<int>(argv.size()),
                               argv.data());
}

class LoggingFlags : public ::testing::Test
{
  protected:
    void SetUp() override { unsetenv("FIREFLY_DEBUG"); }
    void TearDown() override { unsetenv("FIREFLY_DEBUG"); }
};

using Flags = std::vector<std::string>;

TEST_F(LoggingFlags, EnvironmentVariableFoldsInOnFirstUse)
{
    setenv("FIREFLY_DEBUG", "Cpu,Rpc", 1);
    bench::ObsOptions opts;
    EXPECT_EQ(parse(opts, {}), std::nullopt);
    EXPECT_EQ(opts.textFlags, (Flags{"Cpu", "Rpc"}));
    // The variable names text categories only: it is not --debug-flags.
    EXPECT_TRUE(opts.debugFlags.empty());
    EXPECT_FALSE(opts.observing());
}

TEST_F(LoggingFlags, EnvironmentCombinesWithProgrammaticFlags)
{
    setenv("FIREFLY_DEBUG", "Dma", 1);
    bench::ObsOptions opts;
    EXPECT_EQ(parse(opts, {"--debug-flags=MBus"}), std::nullopt);
    EXPECT_EQ(opts.textFlags, (Flags{"MBus", "Dma"}));
    EXPECT_TRUE(opts.observing());
}

TEST_F(LoggingFlags, ResetClearsEverything)
{
    // No flag outlives its parse: there is no process-wide registry.
    bench::ObsOptions first;
    EXPECT_EQ(parse(first, {"--debug-flags=MBus,Cache"}), std::nullopt);
    EXPECT_EQ(first.textFlags, (Flags{"MBus", "Cache"}));
    bench::ObsOptions second;
    EXPECT_EQ(parse(second, {}), std::nullopt);
    EXPECT_TRUE(second.textFlags.empty());
}

TEST_F(LoggingFlags, EmptyTokensAreAllowed)
{
    setenv("FIREFLY_DEBUG", ",", 1);
    bench::ObsOptions opts;
    EXPECT_EQ(parse(opts, {"--debug-flags=,MBus,,Cache,"}), std::nullopt);
    EXPECT_EQ(opts.textFlags, (Flags{"MBus", "Cache"}));
}

TEST_F(LoggingFlags, UnknownFlagIsAUsageError)
{
    bench::ObsOptions opts;
    EXPECT_EQ(parse(opts, {"--debug-flags=MBus,Mbus"}), 2);

    setenv("FIREFLY_DEBUG", "Cache,Bogus", 1);
    bench::ObsOptions env_opts;
    EXPECT_EQ(parse(env_opts, {}), 2);
}

TEST_F(LoggingFlags, EveryCategoryIsAFlag)
{
    std::string all;
    for (const char *category : obs::kCategories)
        all += std::string(category) + ",";
    const std::string arg = "--debug-flags=" + all;
    bench::ObsOptions opts;
    EXPECT_EQ(parse(opts, {arg.c_str()}), std::nullopt);
    EXPECT_EQ(opts.textFlags.size(), std::size(obs::kCategories));
}

} // namespace
