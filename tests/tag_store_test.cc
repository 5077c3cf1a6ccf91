/**
 * @file
 * The cache's tag store: a line is Invalid exactly when its tag is
 * kNoLine, and every path that invalidates a line clears its tag, so
 * the bus (which reads the tags to pick the caches it probes) never
 * probes a cache for a line it no longer holds.
 */

#include <gtest/gtest.h>

#include <string>

#include "check/fuzz.hh"
#include "check/rig.hh"

using namespace firefly;
using firefly::check::Rig;

namespace
{

constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::Firefly,
    ProtocolKind::Dragon,
    ProtocolKind::WriteThroughInvalidate,
    ProtocolKind::Berkeley,
    ProtocolKind::Mesi,
};

constexpr Addr kA = 0x2000;
constexpr Addr kB = 0x2000 + 16 * 1024;  // same index as kA (16 KB)

} // namespace

TEST(TagStore, InvalidExactlyWhenTagIsNoLineThroughoutAFuzzRun)
{
    for (const ProtocolKind kind : kAllProtocols) {
        for (const Addr line_bytes : {Addr{4}, Addr{32}}) {
            check::FuzzConfig cfg;
            cfg.protocol = kind;
            cfg.lineBytes = line_bytes;
            cfg.seed = 17;
            std::uint64_t lines_checked = 0;
            std::uint64_t invalid_seen = 0;
            cfg.onBuilt = [&](check::CheckedRig &m) {
                // After every transaction has applied its state
                // changes, look at every index of every cache.
                m.bus.addSettleObserver([&](const MBusTransaction &) {
                    for (const auto &cache : m.caches) {
                        for (Addr a = 0; a < cfg.cacheBytes;
                             a += line_bytes) {
                            const Cache::LineView line = cache->lineAt(a);
                            ASSERT_EQ(line.state == LineState::Invalid,
                                      line.base == kNoLine)
                                << toString(kind) << " " << line_bytes
                                << "-byte lines, " << cache->name()
                                << " index of 0x" << std::hex << a;
                            ++lines_checked;
                            invalid_seen += !line.valid();
                        }
                    }
                });
            };
            check::runFuzz(cfg);
            EXPECT_GT(lines_checked, 0u) << toString(kind);
            EXPECT_GT(invalid_seen, 0u) << toString(kind);
        }
    }
}

TEST(TagStore, FlushedCacheIsNeverProbedAgain)
{
    Rig rig(ProtocolKind::Firefly, 2);
    Cache &flushed = *rig.caches[0];
    rig.read(0, kA);
    rig.write(0, kA + 4, 0x11);  // silent write: Dirty
    rig.read(0, kA + 8);
    flushed.flushFunctional();
    for (Addr a = kA; a < kA + 12; a += 4)
        EXPECT_FALSE(flushed.holds(a));
    EXPECT_EQ(rig.memory.read(kA + 4), 0x11u);  // written back

    // Traffic from the other cache on the flushed cache's old lines
    // finds no holder to probe.
    const std::uint64_t probes = rig.bus.snoopCalls();
    EXPECT_EQ(rig.read(1, kA + 4), 0x11u);
    rig.write(1, kA, 0x22);
    rig.read(1, kA + 8);
    EXPECT_EQ(rig.bus.snoopCalls(), probes);
    EXPECT_EQ(rig.state(1, kA + 4), LineState::Valid);  // no MShared
}

TEST(TagStore, VictimWriteBackThenFillLeavesOnlyTheNewBase)
{
    Rig rig(ProtocolKind::Firefly, 2);
    Cache &cache = *rig.caches[0];
    rig.read(0, kA);
    rig.write(0, kA, 0x33);  // silent write: Dirty
    rig.read(0, kB);         // same index: victim write-back, then fill
    EXPECT_EQ(cache.victimWrites.value(), 1u);
    EXPECT_EQ(rig.memory.read(kA), 0x33u);

    EXPECT_TRUE(cache.holds(kB));
    EXPECT_FALSE(cache.holds(kA));
    const Cache::LineView line = cache.lineAt(kA);
    EXPECT_EQ(line.base, kB);
    EXPECT_EQ(line.state, LineState::Valid);

    // The evicted line draws no probe of this cache; the resident one
    // does.
    const std::uint64_t probes = rig.bus.snoopCalls();
    EXPECT_EQ(rig.read(1, kA), 0x33u);
    EXPECT_EQ(rig.bus.snoopCalls(), probes);
    rig.read(1, kB);
    EXPECT_EQ(rig.bus.snoopCalls(), probes + 1);
}
