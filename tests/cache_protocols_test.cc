/**
 * @file
 * Behavioural tests shared by all five coherence protocols, plus
 * protocol-specific checks for the four baselines (Dragon, WTI,
 * Berkeley, MESI).  The shared tests are parameterized over protocol
 * and line size, run under the coherence checker (I1-I5 after every
 * bus transaction), and assert the properties every protocol must
 * give the software: reads see the most recent write, and flushed
 * memory matches the program's history.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "check/rig.hh"

using namespace firefly;
using firefly::check::checked;
using firefly::check::Rig;
using firefly::check::rigConfig;

namespace
{

constexpr Addr kA = 0x2000;
constexpr Addr kB = 0x2000 + 16 * 1024;  // same index as kA (16 KB)

} // namespace

class ProtocolBehaviour
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, Addr>>
{
  protected:
    ProtocolKind kind() const { return std::get<0>(GetParam()); }
    Cache::Geometry
    geometry() const
    {
        return {16 * 1024, std::get<1>(GetParam())};
    }
};

TEST_P(ProtocolBehaviour, ReadReturnsMemoryValue)
{
    Rig rig(checked(rigConfig(kind(), 3, geometry())));
    rig.memory.write(kA, 0xfeed);
    EXPECT_EQ(rig.read(0, kA), 0xfeedu);
}

TEST_P(ProtocolBehaviour, ReadAfterWriteSameCpu)
{
    Rig rig(checked(rigConfig(kind(), 3, geometry())));
    rig.write(0, kA, 11);
    EXPECT_EQ(rig.read(0, kA), 11u);
    rig.write(0, kA, 12);
    EXPECT_EQ(rig.read(0, kA), 12u);
}

TEST_P(ProtocolBehaviour, ReadAfterWriteOtherCpu)
{
    Rig rig(checked(rigConfig(kind(), 3, geometry())));
    rig.write(0, kA, 21);
    EXPECT_EQ(rig.read(1, kA), 21u);
    EXPECT_EQ(rig.read(2, kA), 21u);
}

TEST_P(ProtocolBehaviour, WriteOverRemoteDirty)
{
    Rig rig(checked(rigConfig(kind(), 3, geometry())));
    rig.write(0, kA, 1);
    rig.write(0, kA, 2);  // likely dirty in cache 0
    rig.write(1, kA, 3);
    EXPECT_EQ(rig.read(0, kA), 3u);
    EXPECT_EQ(rig.read(2, kA), 3u);
    rig.checker->finalCheck();
}

TEST_P(ProtocolBehaviour, PingPongWritersConverge)
{
    Rig rig(checked(rigConfig(kind(), 2, geometry())));
    for (Word i = 0; i < 20; ++i)
        rig.write(i % 2, kA, 100 + i);
    EXPECT_EQ(rig.read(0, kA), 119u);
    EXPECT_EQ(rig.read(1, kA), 119u);
    rig.checker->finalCheck();
}

TEST_P(ProtocolBehaviour, ConflictEvictionPreservesData)
{
    Rig rig(checked(rigConfig(kind(), 2, geometry())));
    rig.write(0, kA, 31);
    rig.write(0, kB, 32);  // may evict kA (same index)
    rig.write(0, kA, 33);  // may evict kB
    EXPECT_EQ(rig.read(0, kB), 32u);
    EXPECT_EQ(rig.read(0, kA), 33u);
    EXPECT_EQ(rig.read(1, kA), 33u);
    EXPECT_EQ(rig.read(1, kB), 32u);
}

TEST_P(ProtocolBehaviour, FlushLeavesMemoryCurrent)
{
    Rig rig(checked(rigConfig(kind(), 3, geometry())));
    rig.write(0, kA, 41);
    rig.write(1, kA, 42);
    rig.write(1, kA + 8, 43);
    rig.write(2, kB, 44);
    for (auto &cache : rig.caches)
        cache->flushFunctional();
    EXPECT_EQ(rig.memory.read(kA), 42u);
    EXPECT_EQ(rig.memory.read(kA + 8), 43u);
    EXPECT_EQ(rig.memory.read(kB), 44u);
}

TEST_P(ProtocolBehaviour, ReadersThenSingleWriter)
{
    Rig rig(checked(rigConfig(kind(), 3, geometry())));
    rig.memory.write(kA, 7);
    EXPECT_EQ(rig.read(0, kA), 7u);
    EXPECT_EQ(rig.read(1, kA), 7u);
    EXPECT_EQ(rig.read(2, kA), 7u);
    rig.write(1, kA, 8);
    EXPECT_EQ(rig.read(0, kA), 8u);
    EXPECT_EQ(rig.read(2, kA), 8u);
    rig.checker->finalCheck();
}

TEST_P(ProtocolBehaviour, InterleavedAddressesStayIndependent)
{
    Rig rig(checked(rigConfig(kind(), 2, geometry())));
    for (Word i = 0; i < 8; ++i)
        rig.write(0, kA + 4 * i, 200 + i);
    for (Word i = 0; i < 8; ++i)
        EXPECT_EQ(rig.read(1, kA + 4 * i), 200 + i);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolBehaviour,
    ::testing::Combine(
        ::testing::Values(ProtocolKind::Firefly, ProtocolKind::Dragon,
                          ProtocolKind::WriteThroughInvalidate,
                          ProtocolKind::Berkeley, ProtocolKind::Mesi),
        ::testing::Values(Addr{4}, Addr{16})),
    [](const auto &info) {
        return std::string(toString(std::get<0>(info.param))) + "_line" +
               std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Protocol-specific expectations.
// ---------------------------------------------------------------------------

TEST(WtiProtocol, EveryWriteGoesToTheBus)
{
    Rig rig(rigConfig(ProtocolKind::WriteThroughInvalidate, 2));
    rig.read(0, kA);
    for (Word i = 0; i < 5; ++i)
        rig.write(0, kA, i);
    EXPECT_EQ(rig.bus.stats().get("writes"), 5.0);
    // Memory is always current under write-through.
    EXPECT_EQ(rig.memory.read(kA), 4u);
}

TEST(WtiProtocol, ObservedWriteInvalidates)
{
    Rig rig(rigConfig(ProtocolKind::WriteThroughInvalidate, 2));
    rig.read(0, kA);
    rig.read(1, kA);
    rig.write(0, kA, 9);
    EXPECT_EQ(rig.state(1, kA), LineState::Invalid);
    EXPECT_EQ(rig.caches[1]->invalidationsReceived.value(), 1u);
    // The reload costs an extra miss - the paper's argument against
    // write-through for multiprocessors.
    const auto misses = rig.caches[1]->readMisses.value();
    EXPECT_EQ(rig.read(1, kA), 9u);
    EXPECT_EQ(rig.caches[1]->readMisses.value(), misses + 1);
}

TEST(WtiProtocol, NoVictimWritesEver)
{
    Rig rig(rigConfig(ProtocolKind::WriteThroughInvalidate, 1));
    rig.write(0, kA, 1);
    rig.write(0, kB, 2);
    rig.read(0, kA);
    rig.read(0, kB);
    EXPECT_EQ(rig.caches[0]->victimWrites.value(), 0u);
}

TEST(DragonProtocol, UpdateLeavesMemoryStale)
{
    Rig rig(rigConfig(ProtocolKind::Dragon, 2));
    rig.memory.write(kA, 1);
    rig.read(0, kA);
    rig.read(1, kA);
    rig.write(0, kA, 2);  // bus update, not write-through
    EXPECT_EQ(rig.read(1, kA), 2u);          // sharer updated
    EXPECT_EQ(rig.memory.read(kA), 1u);      // memory stale
    EXPECT_EQ(rig.state(0, kA), LineState::SharedDirty);  // Sm owner
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);       // Sc
    EXPECT_EQ(rig.caches[0]->updatesSent.value(), 1u);
}

TEST(DragonProtocol, OwnerSuppliesAndWritesBackOnEviction)
{
    Rig rig(rigConfig(ProtocolKind::Dragon, 2));
    rig.read(0, kA);
    rig.read(1, kA);
    rig.write(0, kA, 5);  // cache 0 is Sm owner
    rig.write(0, kB, 6);  // evicts the Sm line -> victim write
    EXPECT_EQ(rig.caches[0]->victimWrites.value(), 1u);
    EXPECT_EQ(rig.memory.read(kA), 5u);
    // The remaining Sc copy still reads correctly.
    EXPECT_EQ(rig.read(1, kA), 5u);
}

TEST(DragonProtocol, WriterOwnershipMigrates)
{
    Rig rig(rigConfig(ProtocolKind::Dragon, 2));
    rig.read(0, kA);
    rig.read(1, kA);
    rig.write(0, kA, 1);
    EXPECT_EQ(rig.state(0, kA), LineState::SharedDirty);
    rig.write(1, kA, 2);
    // Ownership moved to cache 1; cache 0 demoted to Sc.
    EXPECT_EQ(rig.state(1, kA), LineState::SharedDirty);
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
}

TEST(BerkeleyProtocol, WriteAcquiresOwnershipByInvalidation)
{
    Rig rig(rigConfig(ProtocolKind::Berkeley, 3));
    rig.read(0, kA);
    rig.read(1, kA);
    rig.read(2, kA);
    rig.write(0, kA, 9);
    EXPECT_EQ(rig.state(0, kA), LineState::Dirty);
    EXPECT_EQ(rig.state(1, kA), LineState::Invalid);
    EXPECT_EQ(rig.state(2, kA), LineState::Invalid);
    EXPECT_EQ(rig.caches[0]->invalidatesSent.value(), 1u);
    // Memory not updated: the owner holds the only copy.
    EXPECT_EQ(rig.memory.read(kA), 0u);
}

TEST(BerkeleyProtocol, OwnerSuppliesReadersAndBecomesSharedDirty)
{
    Rig rig(rigConfig(ProtocolKind::Berkeley, 2));
    rig.write(0, kA, 3);
    ASSERT_EQ(rig.state(0, kA), LineState::Dirty);
    EXPECT_EQ(rig.read(1, kA), 3u);
    EXPECT_EQ(rig.state(0, kA), LineState::SharedDirty);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    // Memory still stale; write-back happens on victimisation.
    EXPECT_EQ(rig.memory.read(kA), 0u);
    rig.write(0, kB, 4);  // evict the owned line
    EXPECT_EQ(rig.memory.read(kA), 3u);
}

TEST(BerkeleyProtocol, FillsInstallUnownedShared)
{
    Rig rig(rigConfig(ProtocolKind::Berkeley, 2));
    rig.memory.write(kA, 1);
    rig.read(0, kA);
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
}

TEST(MesiProtocol, ExclusiveCleanUpgradesSilently)
{
    Rig rig(rigConfig(ProtocolKind::Mesi, 2));
    rig.read(0, kA);
    EXPECT_EQ(rig.state(0, kA), LineState::Valid);  // E
    const double writes = rig.bus.stats().get("writes");
    const double invals = rig.bus.stats().get("invalidates");
    rig.write(0, kA, 4);
    EXPECT_EQ(rig.state(0, kA), LineState::Dirty);  // M
    EXPECT_EQ(rig.bus.stats().get("writes"), writes);
    EXPECT_EQ(rig.bus.stats().get("invalidates"), invals);
}

TEST(MesiProtocol, SharedWriteSendsUpgrade)
{
    Rig rig(rigConfig(ProtocolKind::Mesi, 2));
    rig.read(0, kA);
    rig.read(1, kA);
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    rig.write(0, kA, 4);
    EXPECT_EQ(rig.state(0, kA), LineState::Dirty);
    EXPECT_EQ(rig.state(1, kA), LineState::Invalid);
    EXPECT_EQ(rig.caches[0]->invalidatesSent.value(), 1u);
}

TEST(MesiProtocol, SnoopedReadDowngradesModifiedAndCleansMemory)
{
    Rig rig(rigConfig(ProtocolKind::Mesi, 2));
    rig.write(0, kA, 6);   // M via BusRdX
    ASSERT_EQ(rig.state(0, kA), LineState::Dirty);
    EXPECT_EQ(rig.read(1, kA), 6u);
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    // Illinois-style: memory captured the supplied line.
    EXPECT_EQ(rig.memory.read(kA), 6u);
}

TEST(MesiProtocol, InvalidationCausesCoherenceMissOnSharer)
{
    // The paper: invalidation protocols "perform poorly when actual
    // sharing occurs, since the invalidated information must be
    // reloaded when the CPU next references it."
    Rig rig(rigConfig(ProtocolKind::Mesi, 2));
    rig.read(0, kA);
    rig.read(1, kA);
    const auto fills_before = rig.caches[1]->fills.value();
    rig.write(0, kA, 1);
    EXPECT_EQ(rig.read(1, kA), 1u);
    EXPECT_EQ(rig.caches[1]->fills.value(), fills_before + 1);
}

TEST(ProtocolFactory, MakesEveryKind)
{
    for (auto kind :
         {ProtocolKind::Firefly, ProtocolKind::Dragon,
          ProtocolKind::WriteThroughInvalidate, ProtocolKind::Berkeley,
          ProtocolKind::Mesi}) {
        EXPECT_STREQ(makeProtocol(kind).name, toString(kind));
    }
}

TEST(ProtocolTable, InvariantSetsMatchTheCheckerRules)
{
    // The legal (I1) and exclusive (I3) states the invariant scanner
    // reads from each table, as literals: an edit to a table's sets
    // must show up here.  Berkeley has no exclusive-clean state, and
    // WTI's only state is freely shared.
    constexpr LineState I = LineState::Invalid, V = LineState::Valid,
                        D = LineState::Dirty, S = LineState::Shared,
                        SD = LineState::SharedDirty;
    const struct
    {
        ProtocolKind kind;
        std::vector<LineState> legal, exclusive;
    } expected[] = {
        {ProtocolKind::Firefly, {V, D, S}, {V, D}},
        {ProtocolKind::Dragon, {V, D, S, SD}, {V, D}},
        {ProtocolKind::WriteThroughInvalidate, {V}, {}},
        {ProtocolKind::Berkeley, {D, S, SD}, {D}},
        {ProtocolKind::Mesi, {V, D, S}, {V, D}},
    };
    for (const auto &e : expected) {
        const ProtocolTable &table = makeProtocol(e.kind);
        for (const LineState s : {I, V, D, S, SD}) {
            const auto in = [s](const std::vector<LineState> &set) {
                return std::find(set.begin(), set.end(), s) != set.end();
            };
            EXPECT_EQ(table.legal.contains(s), in(e.legal))
                << table.name << " legal " << toString(s);
            EXPECT_EQ(table.exclusive.contains(s), in(e.exclusive))
                << table.name << " exclusive " << toString(s);
        }
    }
}

TEST(ProtocolTableDeathTest, ImpossibleEntriesPanic)
{
    // A write hit in a state the protocol never holds.
    ProtocolTable bad_fill = makeProtocol(ProtocolKind::Firefly);
    bad_fill.fillState = {LineState::SharedDirty, LineState::SharedDirty};
    EXPECT_DEATH(
        {
            FireflyConfig cfg = rigConfig(ProtocolKind::Firefly, 1);
            cfg.protocolTable = &bad_fill;
            Rig rig(cfg);
            rig.read(0, kA);
            rig.write(0, kA, 1);
        },
        "Firefly write hit in state SharedDirty");

    // A snooped operation the protocol never sees.
    ProtocolTable owned_miss = makeProtocol(ProtocolKind::Firefly);
    owned_miss.writeMiss = {WriteMissAction::ReadOwned,
                            WriteMissAction::ReadOwned};
    EXPECT_DEATH(
        {
            FireflyConfig cfg = rigConfig(ProtocolKind::Firefly);
            cfg.protocolTable = &owned_miss;
            Rig rig(cfg);
            rig.read(0, kA);
            rig.write(1, kA, 1);
        },
        "Firefly cache snooped MReadOwned in state Valid");
}

TEST(ProtocolTableDeathTest, TransactionNeitherWordNorLinePanics)
{
    // Snoop events judge partial writes by length alone, which holds
    // only while every transaction is one word or a whole line; a
    // 2-word fill seen by a cache with 1-word lines is neither.
    EXPECT_DEATH(
        {
            Rig rig(rigConfig(ProtocolKind::Firefly, 1, {16 * 1024, 4}));
            Cache wide(rig.sim, rig.bus, makeProtocol(ProtocolKind::Firefly),
                       Cache::Geometry{16 * 1024, 8}, "wide");
            rig.caches.push_back(&wide);
            rig.read(0, kA);
            rig.read(1, kA);
        },
        "neither one word nor line");
}

TEST(CacheGeometry, RejectsBadLineSizes)
{
    Simulator sim;
    MainMemory memory;
    MBus bus(sim, memory);
    const auto build = [&](Cache::Geometry geom) {
        Cache c(sim, bus, makeProtocol(ProtocolKind::Firefly), geom,
                "bad");
    };
    EXPECT_EXIT(build({16 * 1024, 3}), ::testing::ExitedWithCode(1),
                "line size");
    EXPECT_EXIT(build({16 * 1024, 64}), ::testing::ExitedWithCode(1),
                "line size");
    // Direct-mapped indexing masks the line number: three lines will
    // not do.
    EXPECT_EXIT(build({12, 4}), ::testing::ExitedWithCode(1),
                "power of two");
}

TEST(CacheGeometry, SingleLineCacheStillCoherent)
{
    Rig rig(rigConfig(ProtocolKind::Firefly, 2, {4, 4}));  // one-line cache
    rig.write(0, kA, 1);
    rig.write(0, kA + 4, 2);  // evicts constantly
    EXPECT_EQ(rig.read(1, kA), 1u);
    EXPECT_EQ(rig.read(1, kA + 4), 2u);
}
