/**
 * @file
 * Randomized coherence fuzzing (src/check/fuzz.hh): many seeds, all
 * five protocols, several machine shapes, with the checker throwing
 * on any violation; plus the differential cross-protocol test (same
 * seed, identical load values everywhere) and the "teeth" tests
 * proving a broken protocol is actually caught.
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

/** Three machine shapes x five protocols, exercised in parallel. */
TEST(CoherenceFuzz, ConfigMatrixStaysClean)
{
    std::vector<FuzzConfig> configs;
    for (unsigned p = 0; p < std::size(kAllProtocols); ++p) {
        for (unsigned shape = 0; shape < 3; ++shape) {
            FuzzConfig cfg;
            cfg.protocol = kAllProtocols[p];
            cfg.seed = harness::pointSeed(kBaseSeed, 100 + p, shape);
            cfg.steps = 1200;
            switch (shape) {
              case 0:
                // Default: 4-byte lines, moderate DMA.
                break;
              case 1:
                // Multi-word lines + DMA bursts: partial-line snoop
                // merges and victim refreshes get exercised.
                cfg.lineBytes = 8;
                cfg.dmaFrac = 0.2;
                cfg.dmaBurstMax = 4;
                break;
              case 2:
                // Contention: more caches, tiny capacity, heavy
                // sharing and migration.
                cfg.nCaches = 4;
                cfg.cacheBytes = 128;
                cfg.sharedFrac = 0.85;
                cfg.migrateFrac = 0.3;
                break;
            }
            configs.push_back(cfg);
        }
    }
    const auto results = harness::runSweep(
        configs, [](const FuzzConfig &cfg) { return runFuzz(cfg); }, 4);
    for (const FuzzResult &r : results)
        EXPECT_GT(r.loadsChecked, 0u);
}

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
