/**
 * @file
 * Randomized coherence fuzzing (src/check/fuzz.hh): many seeds, all
 * five protocols, several machine shapes, with the checker throwing
 * on any violation and every load held to the oracle exactly; the
 * random protocol sweep over cache counts, line sizes and hot-region
 * sizes; the differential cross-protocol test (same seed, identical
 * load values everywhere); and the "teeth" tests proving a broken
 * protocol is actually caught.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "broken_protocols.hh"
#include "check/fuzz.hh"
#include "harness/sweep.hh"

using namespace firefly;
using check::CoherenceViolation;
using check::FuzzConfig;
using check::FuzzResult;
using check::kFuzzShapes;
using check::runFuzz;

namespace
{

constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::Firefly,
    ProtocolKind::Dragon,
    ProtocolKind::WriteThroughInvalidate,
    ProtocolKind::Berkeley,
    ProtocolKind::Mesi,
};

constexpr std::uint64_t kBaseSeed = 0xF1EF7Ca5e;

} // namespace

/**
 * The acceptance bar: >= 50 random seeds across all five protocols,
 * zero violations.  12 seeds x 5 protocols = 60 runs; any violation
 * throws out of runSweep with the seed's full diagnostic.
 */
TEST(CoherenceFuzz, SixtySeedsAcrossAllProtocolsStayClean)
{
    std::vector<FuzzConfig> configs;
    for (unsigned p = 0; p < std::size(kAllProtocols); ++p) {
        for (unsigned s = 0; s < 12; ++s) {
            FuzzConfig cfg;
            cfg.protocol = kAllProtocols[p];
            cfg.seed = harness::pointSeed(kBaseSeed, p, s);
            cfg.steps = 1500;
            configs.push_back(cfg);
        }
    }
    const auto results = harness::runSweep(
        configs, [](const FuzzConfig &cfg) { return runFuzz(cfg); }, 4);
    ASSERT_EQ(results.size(), 60u);
    for (const FuzzResult &r : results) {
        EXPECT_GT(r.loadsChecked, 0u);
        EXPECT_GT(r.writesTracked, 0u);
        EXPECT_GT(r.cycles, 0u);
    }
}

/** The corpus machine shapes x five protocols, in parallel. */
TEST(CoherenceFuzz, ConfigMatrixStaysClean)
{
    std::vector<FuzzConfig> configs;
    for (unsigned p = 0; p < std::size(kAllProtocols); ++p) {
        for (unsigned shape = 0; shape < std::size(kFuzzShapes); ++shape) {
            FuzzConfig cfg;
            cfg.protocol = kAllProtocols[p];
            cfg.seed = harness::pointSeed(kBaseSeed, 100 + p, shape);
            cfg.steps = 1200;
            kFuzzShapes[shape].apply(cfg);
            configs.push_back(cfg);
        }
    }
    const auto results = harness::runSweep(
        configs, [](const FuzzConfig &cfg) { return runFuzz(cfg); }, 4);
    for (const FuzzResult &r : results)
        EXPECT_GT(r.loadsChecked, 0u);
}

// ---------------------------------------------------------------------------
// The random protocol sweep: every CPU op lands on one hot region
// shared by all caches, and the caches are 64 lines, so the larger
// regions also force constant conflict evictions.  runFuzz holds each
// load to the oracle exactly and the checker proves I1-I5 after
// every transaction.
// ---------------------------------------------------------------------------

namespace
{

struct StressParams
{
    ProtocolKind kind;
    unsigned caches;
    Addr lineBytes;
    unsigned addresses;  ///< size of the shared hot region in words
};

std::string
paramName(const ::testing::TestParamInfo<StressParams> &info)
{
    const auto &p = info.param;
    return std::string(toString(p.kind)) + "_c" +
           std::to_string(p.caches) + "_l" +
           std::to_string(p.lineBytes) + "_a" +
           std::to_string(p.addresses);
}

/** The fuzz run one sweep row stands for. */
FuzzConfig
stressConfig(const StressParams &p)
{
    FuzzConfig cfg;
    cfg.protocol = p.kind;
    cfg.seed = 0xc0ffee + p.caches + p.lineBytes + p.addresses;
    cfg.steps = 4000;
    cfg.nCaches = p.caches;
    cfg.lineBytes = p.lineBytes;
    cfg.cacheBytes = 64 * p.lineBytes;
    cfg.sharedWords = p.addresses;
    cfg.sharedFrac = 1;
    cfg.writeFrac = 0.4;
    cfg.dmaFrac = 0;
    return cfg;
}

// gtest names each case with a hex dump of its parameter's bytes,
// padding included.  A table in static storage has its padding
// zero-initialized, so those names come out the same on every run;
// temporaries built inside ::testing::Values() would carry whatever
// the stack held.
constexpr StressParams kSweep[] = {
    {ProtocolKind::Firefly, 2, 4, 32},
    {ProtocolKind::Firefly, 4, 4, 96},
    {ProtocolKind::Firefly, 7, 4, 200},
    {ProtocolKind::Firefly, 4, 16, 96},
    {ProtocolKind::Dragon, 2, 4, 32},
    {ProtocolKind::Dragon, 4, 4, 96},
    {ProtocolKind::Dragon, 4, 16, 96},
    {ProtocolKind::WriteThroughInvalidate, 4, 4, 96},
    {ProtocolKind::Berkeley, 2, 4, 32},
    {ProtocolKind::Berkeley, 4, 4, 96},
    {ProtocolKind::Berkeley, 4, 16, 96},
    {ProtocolKind::Mesi, 4, 4, 96},
    {ProtocolKind::Mesi, 7, 16, 200},
};

} // namespace

class CoherenceStress : public ::testing::TestWithParam<StressParams>
{
};

TEST_P(CoherenceStress, RandomTrafficMatchesOracle)
{
    const FuzzResult r = runFuzz(stressConfig(GetParam()));
    EXPECT_GT(r.loads, 0u);
    EXPECT_GT(r.stores, 0u);
}

TEST_P(CoherenceStress, DeterministicGivenSeed)
{
    FuzzConfig cfg = stressConfig(GetParam());
    cfg.recordLoads = true;
    const FuzzResult first = runFuzz(cfg);
    ASSERT_FALSE(first.loadLog.empty());
    EXPECT_TRUE(runFuzz(cfg) == first);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoherenceStress, ::testing::ValuesIn(kSweep),
                         paramName);

/**
 * Differential mode: the reference stream is a pure function of the
 * seed, so every protocol must return the same value for every load
 * (CPU and DMA) - coherence protocols differ in cost, never in
 * answers.
 */
TEST(CoherenceFuzz, AllProtocolsYieldIdenticalLoadValues)
{
    for (unsigned s = 0; s < 3; ++s) {
        FuzzConfig base;
        base.seed = harness::pointSeed(kBaseSeed, 200, s);
        base.steps = 1200;
        base.recordLoads = true;
        std::vector<Word> reference;
        for (const ProtocolKind kind : kAllProtocols) {
            FuzzConfig cfg = base;
            cfg.protocol = kind;
            const FuzzResult r = runFuzz(cfg);
            ASSERT_FALSE(r.loadLog.empty());
            if (reference.empty()) {
                reference = r.loadLog;
            } else {
                EXPECT_EQ(r.loadLog, reference)
                    << toString(kind) << " diverged at seed " << s;
            }
        }
    }
}

/**
 * Teeth: a protocol that skips the MShared update (installs every
 * fill exclusive) must be caught, with a line-level diagnostic.
 */
TEST(CoherenceFuzz, SkippedMSharedUpdateIsCaught)
{
    FuzzConfig cfg;
    cfg.protocol = ProtocolKind::Firefly;
    cfg.seed = harness::pointSeed(kBaseSeed, 300);
    cfg.steps = 500;
    cfg.protocolTable = &test::kIgnoreMShared;
    try {
        runFuzz(cfg);
        FAIL() << "broken protocol survived the fuzzer";
    } catch (const CoherenceViolation &v) {
        const std::string what = v.what();
        EXPECT_NE(what.find("coherence violation"), std::string::npos)
            << what;
        EXPECT_NE(what.find("line 0x"), std::string::npos) << what;
    }
}

/** Teeth: a cache deaf to snooped writes must be caught too. */
TEST(CoherenceFuzz, LostSnoopedWritesAreCaught)
{
    FuzzConfig cfg;
    cfg.protocol = ProtocolKind::Firefly;
    cfg.seed = harness::pointSeed(kBaseSeed, 301);
    cfg.steps = 800;
    cfg.sharedFrac = 0.9;  // make lost updates matter fast
    cfg.protocolTable = &test::kDeafToWrites;
    EXPECT_THROW(runFuzz(cfg), CoherenceViolation);
}
