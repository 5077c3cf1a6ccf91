/**
 * @file
 * Per-protocol Figure 3 edge cases, driven through a 2-cache machine
 * with the coherence checker attached, asserting the exact resulting
 * line states: read-miss on a shared/dirty line, write-hit on a
 * shared line, the Firefly last-sharer reversion, the
 * write-back-vs-DMA race on every protocol with dirty lines, and the
 * ownership race between two sharers' MInvalidates.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "check/rig.hh"

using namespace firefly;
using firefly::check::checked;
using firefly::check::Rig;
using firefly::check::rigConfig;

namespace
{

constexpr Addr kA = 0x1000;

} // namespace

// --- Firefly -------------------------------------------------------------

TEST(FireflyTransitions, ReadMissOnDirtyLineSharesAndCleansMemory)
{
    Rig rig(checked(rigConfig(ProtocolKind::Firefly)));
    rig.read(0, kA);
    rig.write(0, kA, 7);  // silent: Valid -> Dirty
    ASSERT_EQ(rig.state(0, kA), LineState::Dirty);

    EXPECT_EQ(rig.read(1, kA), 7u);
    // Firefly: the dirty holder supplies, memory captures, and both
    // ends settle Shared (shared copies are clean).
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    EXPECT_EQ(rig.memory.read(kA), 7u);
    rig.checker->finalCheck();
}

TEST(FireflyTransitions, WriteHitSharedWritesThroughAndStaysShared)
{
    Rig rig(checked(rigConfig(ProtocolKind::Firefly)));
    rig.read(0, kA);
    rig.read(1, kA);
    ASSERT_EQ(rig.state(0, kA), LineState::Shared);

    const double fills_before = rig.caches[1]->fills.value();
    rig.write(0, kA, 8);
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    EXPECT_EQ(rig.memory.read(kA), 8u);
    // The sharer's copy was updated in place: no new fill.
    EXPECT_EQ(rig.read(1, kA), 8u);
    EXPECT_EQ(rig.caches[1]->fills.value(), fills_before);
    rig.checker->finalCheck();
}

TEST(FireflyTransitions, LastSharerRevertsAndWritesGoSilentAgain)
{
    Rig rig(checked(rigConfig(ProtocolKind::Firefly)));
    rig.read(0, kA);
    rig.read(1, kA);
    ASSERT_EQ(rig.state(0, kA), LineState::Shared);

    // Evict cache1's copy with a conflicting line (16 KB default
    // geometry: +16 KB maps to the same set).
    rig.read(1, kA + 16 * 1024);
    ASSERT_EQ(rig.state(1, kA), LineState::Invalid);

    // The write-through sees MShared deasserted and reverts to
    // exclusive; the next write is silent (Section 5.1's dynamic
    // sharing detection).
    rig.write(0, kA, 9);
    EXPECT_EQ(rig.state(0, kA), LineState::Valid);
    const double writes_before = rig.bus.stats().get("writes");
    rig.write(0, kA, 10);
    EXPECT_EQ(rig.state(0, kA), LineState::Dirty);
    EXPECT_EQ(rig.bus.stats().get("writes"), writes_before);
    rig.checker->finalCheck();
}

// --- Dragon --------------------------------------------------------------

TEST(DragonTransitions, ReadMissOnDirtyLineMakesOwnerSharedDirty)
{
    Rig rig(checked(rigConfig(ProtocolKind::Dragon)));
    rig.read(0, kA);
    rig.write(0, kA, 7);
    ASSERT_EQ(rig.state(0, kA), LineState::Dirty);

    EXPECT_EQ(rig.read(1, kA), 7u);
    // Dragon: the owner supplies and keeps ownership (Sm); memory is
    // NOT updated.
    EXPECT_EQ(rig.state(0, kA), LineState::SharedDirty);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    EXPECT_EQ(rig.memory.read(kA), 0u);
    rig.checker->finalCheck();
}

TEST(DragonTransitions, WriteHitSharedUpdatesAndMovesOwnership)
{
    Rig rig(checked(rigConfig(ProtocolKind::Dragon)));
    rig.read(0, kA);
    rig.write(0, kA, 7);
    rig.read(1, kA);
    ASSERT_EQ(rig.state(0, kA), LineState::SharedDirty);

    rig.write(1, kA, 8);
    // The writer becomes the owner (Sm); the old owner demotes to a
    // clean sharer (Sc) whose copy was updated in place.
    EXPECT_EQ(rig.state(1, kA), LineState::SharedDirty);
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    EXPECT_EQ(rig.read(0, kA), 8u);
    EXPECT_EQ(rig.memory.read(kA), 0u);  // still never written back
    rig.checker->finalCheck();
}

TEST(DragonTransitions, UpdateWithNoSharersRevertsToDirty)
{
    Rig rig(checked(rigConfig(ProtocolKind::Dragon)));
    rig.read(0, kA);
    rig.read(1, kA);
    rig.write(1, kA, 8);
    ASSERT_EQ(rig.state(1, kA), LineState::SharedDirty);

    rig.read(0, kA + 16 * 1024);  // evict cache0's copy
    ASSERT_EQ(rig.state(0, kA), LineState::Invalid);
    rig.write(1, kA, 9);
    EXPECT_EQ(rig.state(1, kA), LineState::Dirty);
    rig.checker->finalCheck();
}

// --- Write-through invalidate --------------------------------------------

TEST(WtiTransitions, WriteInvalidatesEverySharer)
{
    Rig rig(checked(rigConfig(ProtocolKind::WriteThroughInvalidate)));
    rig.read(0, kA);
    rig.read(1, kA);
    ASSERT_EQ(rig.state(0, kA), LineState::Valid);
    ASSERT_EQ(rig.state(1, kA), LineState::Valid);

    rig.write(1, kA, 8);
    EXPECT_EQ(rig.state(1, kA), LineState::Valid);
    EXPECT_EQ(rig.state(0, kA), LineState::Invalid);
    EXPECT_EQ(rig.memory.read(kA), 8u);
    EXPECT_EQ(rig.read(0, kA), 8u);  // re-fetches from memory
    rig.checker->finalCheck();
}

// --- Berkeley ------------------------------------------------------------

TEST(BerkeleyTransitions, ReadMissOnDirtyLineLeavesOwnerResponsible)
{
    Rig rig(checked(rigConfig(ProtocolKind::Berkeley)));
    rig.write(0, kA, 7);  // ReadOwned miss -> Dirty
    ASSERT_EQ(rig.state(0, kA), LineState::Dirty);

    EXPECT_EQ(rig.read(1, kA), 7u);
    // Berkeley: owner supplies, stays owner (SharedDirty); memory is
    // not updated.
    EXPECT_EQ(rig.state(0, kA), LineState::SharedDirty);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    EXPECT_EQ(rig.memory.read(kA), 0u);
    rig.checker->finalCheck();
}

TEST(BerkeleyTransitions, WriteHitSharedInvalidatesAndTakesOwnership)
{
    Rig rig(checked(rigConfig(ProtocolKind::Berkeley)));
    rig.write(0, kA, 7);
    rig.read(1, kA);
    ASSERT_EQ(rig.state(1, kA), LineState::Shared);

    rig.write(1, kA, 8);
    EXPECT_EQ(rig.state(1, kA), LineState::Dirty);
    EXPECT_EQ(rig.state(0, kA), LineState::Invalid);
    EXPECT_EQ(rig.memory.read(kA), 0u);  // ownership moved, no write-back
    EXPECT_EQ(rig.read(0, kA), 8u);      // supplied by the new owner
    rig.checker->finalCheck();
}

// --- MESI ----------------------------------------------------------------

TEST(MesiTransitions, ReadMissOnModifiedLineSharesAndCleansMemory)
{
    Rig rig(checked(rigConfig(ProtocolKind::Mesi)));
    rig.read(0, kA);
    rig.write(0, kA, 7);  // E -> M, silent
    ASSERT_EQ(rig.state(0, kA), LineState::Dirty);

    EXPECT_EQ(rig.read(1, kA), 7u);
    // Illinois-style: the modified holder supplies, memory captures,
    // both end Shared.
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    EXPECT_EQ(rig.memory.read(kA), 7u);
    rig.checker->finalCheck();
}

TEST(MesiTransitions, WriteHitSharedInvalidatesOthers)
{
    Rig rig(checked(rigConfig(ProtocolKind::Mesi)));
    rig.read(0, kA);
    rig.write(0, kA, 7);
    rig.read(1, kA);
    ASSERT_EQ(rig.state(1, kA), LineState::Shared);

    rig.write(1, kA, 8);
    EXPECT_EQ(rig.state(1, kA), LineState::Dirty);
    EXPECT_EQ(rig.state(0, kA), LineState::Invalid);
    EXPECT_EQ(rig.memory.read(kA), 7u);  // invalidation carries no data
    rig.checker->finalCheck();
}

// --- Write-back vs DMA race (every protocol with dirty lines) ------------

/**
 * The race: cache1 owns a dirty line and starts evicting it; in the
 * same cycle a higher-priority DMA write (through cache0, the I/O
 * processor) lands on the line.  The DMA write commits first; the
 * victim write-back must carry the merged line (or squash itself if
 * it was invalidated), never its stale request-time data - that
 * would silently undo the DMA write.
 */
class WritebackDmaRace : public ::testing::TestWithParam<ProtocolKind>
{
};

TEST_P(WritebackDmaRace, PartialDmaWriteMergesIntoPendingVictim)
{
    // 8-byte lines: the DMA write covers word 0 only, so the dirty
    // word 1 must survive the merge into the write-back.
    Rig rig(checked(rigConfig(GetParam(), 2, {256, 8})));
    const Addr x = 0x100;
    const Addr conflict = x + 256;  // same set, different tag

    rig.read(1, x);
    rig.write(1, x + 4, 0x11);
    ASSERT_TRUE(needsWriteback(rig.state(1, x)));

    // Queue the evicting read and the DMA write in the same cycle;
    // cache0 (the I/O position) has bus priority and goes first.
    bool evicted = false;
    auto r = rig.caches[1]->cpuAccess({conflict, RefType::DataRead, 0},
                                      [&](Word) { evicted = true; });
    ASSERT_EQ(r.outcome, Cache::AccessOutcome::Pending);
    bool dma_done = false;
    rig.caches[0]->dmaAccess({x, RefType::DataWrite, 0x22},
                             [&](Word) { dma_done = true; });
    while (!evicted || !dma_done)
        rig.sim.run(1);
    rig.sim.run(8);

    EXPECT_EQ(rig.memory.read(x), 0x22u);      // the DMA write
    EXPECT_EQ(rig.memory.read(x + 4), 0x11u);  // the dirty word
    rig.checker->finalCheck();
}

TEST_P(WritebackDmaRace, FullLineDmaWriteIsNotUndoneByVictim)
{
    // 4-byte lines: the DMA write covers the whole line.  Whether the
    // snoop updates or invalidates the victim, the write-back must
    // not roll memory back to the pre-DMA value.
    Rig rig(checked(rigConfig(GetParam(), 2, {256, 4})));
    const Addr x = 0x100;
    const Addr conflict = x + 256;

    rig.read(1, x);
    rig.write(1, x, 0x11);
    ASSERT_TRUE(needsWriteback(rig.state(1, x)));

    bool evicted = false;
    auto r = rig.caches[1]->cpuAccess({conflict, RefType::DataRead, 0},
                                      [&](Word) { evicted = true; });
    ASSERT_EQ(r.outcome, Cache::AccessOutcome::Pending);
    bool dma_done = false;
    rig.caches[0]->dmaAccess({x, RefType::DataWrite, 0x22},
                             [&](Word) { dma_done = true; });
    while (!evicted || !dma_done)
        rig.sim.run(1);
    rig.sim.run(8);

    EXPECT_EQ(rig.memory.read(x), 0x22u);
    rig.checker->finalCheck();
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, WritebackDmaRace,
    ::testing::Values(ProtocolKind::Firefly, ProtocolKind::Dragon,
                      ProtocolKind::Berkeley, ProtocolKind::Mesi),
    [](const ::testing::TestParamInfo<ProtocolKind> &info) {
        return std::string(toString(info.param));
    });

// --- Ownership race (every protocol that invalidates on a write hit) -----

/**
 * The race: two sharers write the line in the same cycle, so both
 * request an MInvalidate.  The winner's invalidates the loser's copy
 * while the loser's request still waits.  The loser must not then put
 * its stale MInvalidate on the bus - that would destroy the winner's
 * dirty line without a write-back - but fetch the line as a write
 * miss does, with an MReadOwned the winner supplies.
 */
class OwnershipRace
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, Addr>>
{
};

TEST_P(OwnershipRace, LoserFetchesTheWinnersLine)
{
    const auto [kind, line_bytes] = GetParam();
    Rig rig(checked(rigConfig(kind, 2, {1024, line_bytes})));
    const Addr x = 0x2000;
    rig.read(0, x);
    rig.read(1, x);
    ASSERT_EQ(rig.state(0, x), LineState::Shared);
    ASSERT_EQ(rig.state(1, x), LineState::Shared);

    // Both write in the same cycle; cache0 has bus priority and wins.
    unsigned done = 0;
    for (unsigned c = 0; c < 2; ++c) {
        auto r = rig.caches[c]->cpuAccess(
            {x, RefType::DataWrite, 0xa + c}, [&](Word) { ++done; });
        ASSERT_EQ(r.outcome, Cache::AccessOutcome::Pending);
    }
    while (done < 2)
        rig.sim.run(1);
    rig.sim.run(8);

    // The loser's write serialized last, on the line the winner
    // handed over: one MInvalidate on the bus, then one MReadOwned.
    EXPECT_EQ(rig.state(0, x), LineState::Invalid);
    EXPECT_EQ(rig.state(1, x), LineState::Dirty);
    EXPECT_EQ(rig.caches[0]->invalidatesSent.value(), 1u);
    EXPECT_EQ(rig.caches[1]->invalidatesSent.value(), 0u);
    EXPECT_EQ(rig.caches[1]->fills.value(), 2u);
    EXPECT_EQ(rig.read(0, x), 0xbu);
    rig.checker->finalCheck();
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, OwnershipRace,
    ::testing::Combine(::testing::Values(ProtocolKind::Berkeley,
                                         ProtocolKind::Mesi),
                       ::testing::Values(Addr{4}, Addr{16})),
    [](const ::testing::TestParamInfo<OwnershipRace::ParamType> &info) {
        return std::string(toString(std::get<0>(info.param))) + "_" +
               std::to_string(std::get<1>(info.param)) + "ByteLines";
    });
