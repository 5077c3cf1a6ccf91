/**
 * @file
 * The checker's periodic scan only re-checks the lines touched since
 * the previous one.  These tests prove that misses nothing: over the
 * fuzz corpus shapes, every protocol and every broken protocol
 * (tests/broken_protocols.hh) runs with a shadow observer that holds
 * its own InvariantScanner over the same caches and oracle and runs
 * the exhaustive fullScan at every periodic point.  Whenever the
 * checker has not thrown there, the exhaustive scan must be clean
 * too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "broken_protocols.hh"
#include "check/fuzz.hh"
#include "check/invariant_scanner.hh"
#include "harness/sweep.hh"
#include "obs/trace.hh"

using namespace firefly;
using check::CoherenceViolation;
using check::FuzzConfig;
using check::FuzzMachine;
using check::InvariantScanner;

namespace
{

constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::Firefly,
    ProtocolKind::Dragon,
    ProtocolKind::WriteThroughInvalidate,
    ProtocolKind::Berkeley,
    ProtocolKind::Mesi,
};

constexpr std::uint64_t kBaseSeed = 0x5CA7;
constexpr unsigned kSeeds = 8;

/** What one shadowed fuzz run saw. */
struct Shadowed
{
    bool caught = false;         ///< the checker threw
    unsigned exhaustiveScans = 0;
    std::string missed;          ///< first exhaustive-only report
};

/** Run `cfg` with the exhaustive scan shadowing the checker's. */
Shadowed
runShadowed(FuzzConfig cfg)
{
    Shadowed out;
    std::unique_ptr<InvariantScanner> shadow;
    cfg.onBuilt = [&](FuzzMachine &m) {
        shadow = std::make_unique<InvariantScanner>(
            cfg.protocol, m.bus.memorySystem());
        for (const Cache *cache : m.caches)
            shadow->addCache(cache);
        // Registered after the checker's observer: runs only if the
        // checker's own scan of this transaction did not throw.
        m.bus.addSettleObserver([&, &sim = m.sim,
                                 &checker = m.checker](
                                    const MBusTransaction &txn) {
            if (checker.txnsObserved.value() % cfg.fullScanPeriod != 0)
                return;
            ++out.exhaustiveScans;
            std::vector<std::string> violations;
            shadow->fullScan(checker.oracle(), sim.now(), violations);
            if (!violations.empty() && out.missed.empty()) {
                out.missed = "after " +
                    std::to_string(checker.txnsObserved.value()) +
                    " transactions (" + toString(txn.type) + " " +
                    obs::hexAddr(txn.addr) + "): " + violations.front();
            }
        });
    };
    try {
        check::runFuzz(cfg);
    } catch (const CoherenceViolation &) {
        out.caught = true;
    }
    return out;
}

/** Every corpus shape x `kSeeds` seeds at two scan periods. */
std::vector<FuzzConfig>
corpus(ProtocolKind kind, std::uint64_t salt)
{
    std::vector<FuzzConfig> configs;
    for (unsigned sh = 0; sh < std::size(check::kFuzzShapes); ++sh) {
        for (unsigned s = 0; s < kSeeds; ++s) {
            FuzzConfig cfg;
            cfg.protocol = kind;
            cfg.seed = harness::pointSeed(kBaseSeed, salt, sh, s);
            cfg.steps = 1500;
            check::kFuzzShapes[sh].apply(cfg);
            // The corpus period, and a short odd one that lands the
            // scan points everywhere in the reference stream.
            cfg.fullScanPeriod = s % 2 ? 7 : 64;
            configs.push_back(cfg);
        }
    }
    return configs;
}

} // namespace

TEST(IncrementalScan, MatchesExhaustiveScanOnEveryProtocol)
{
    for (unsigned p = 0; p < std::size(kAllProtocols); ++p) {
        for (const FuzzConfig &cfg : corpus(kAllProtocols[p], p)) {
            const Shadowed r = runShadowed(cfg);
            EXPECT_FALSE(r.caught) << toString(cfg.protocol);
            EXPECT_GT(r.exhaustiveScans, 0u);
            EXPECT_EQ(r.missed, "") << toString(cfg.protocol)
                                    << " seed " << cfg.seed;
        }
    }
}

TEST(IncrementalScan, MatchesExhaustiveScanOnEveryBrokenProtocol)
{
    using Factory = std::function<std::unique_ptr<CoherenceProtocol>()>;
    const struct
    {
        const char *name;
        Factory factory;
        unsigned maxCaches;
    } broken[] = {
        {"IgnoreMShared",
         [] {
             return std::make_unique<test::IgnoreMSharedProtocol>(
                 makeProtocol(ProtocolKind::Firefly));
         },
         4},
        {"DeafToWrites",
         [] {
             return std::make_unique<test::DeafToWritesProtocol>(
                 makeProtocol(ProtocolKind::Firefly));
         },
         4},
        // Two caches at most: with a third, a fill of the line can
        // meet two Firefly suppliers holding different data before
        // any scan runs, and the bus panics on the disagreement.
        {"SilentSharedWrite",
         [] {
             return std::make_unique<test::SilentSharedWriteProtocol>(
                 makeProtocol(ProtocolKind::Firefly));
         },
         2},
    };
    for (unsigned b = 0; b < std::size(broken); ++b) {
        for (FuzzConfig cfg : corpus(ProtocolKind::Firefly, 100 + b)) {
            cfg.protocolFactory = broken[b].factory;
            cfg.nCaches = std::min(cfg.nCaches, broken[b].maxCaches);
            const Shadowed r = runShadowed(cfg);
            // Teeth: every run of a broken protocol is caught ...
            EXPECT_TRUE(r.caught) << broken[b].name << " seed "
                                  << cfg.seed;
            // ... and never later than the exhaustive scan would be.
            EXPECT_EQ(r.missed, "") << broken[b].name << " seed "
                                    << cfg.seed;
        }
    }
}
