/**
 * @file
 * Directed DMA-vs-CPU coherence tests, all run under the coherence
 * checker: a DmaEngine write landing on a line cached by several
 * CPUs must be observed by every cache AND by the oracle, and
 * partial DMA writes must never destroy dirty words a cache owns
 * (the data-loss bugs the checker flushed out of the MESI/Berkeley
 * snoop paths and the I/O cache's own DMA-write completion).
 */

#include <gtest/gtest.h>

#include <vector>

#include "check/rig.hh"

using namespace firefly;
using firefly::check::checked;
using firefly::check::Rig;
using firefly::check::rigConfig;

namespace
{

constexpr Addr kX = 0x1000;

} // namespace

/**
 * Satellite: the DmaEngine writes a line cached Shared by two CPUs;
 * both caches and the oracle must observe the update.
 */
class DmaSharedLine : public ::testing::TestWithParam<ProtocolKind>
{
};

TEST_P(DmaSharedLine, EngineWriteReachesEverySharerAndTheOracle)
{
    Rig rig(checked(rigConfig(GetParam(), 3)));
    rig.memory.write(kX, 5);
    EXPECT_EQ(rig.read(1, kX), 5u);
    EXPECT_EQ(rig.read(2, kX), 5u);

    rig.dmaWrite(kX, {0xAB});

    // The oracle serialized the DMA write at its bus commit.
    EXPECT_TRUE(rig.checker->oracle().tracked(kX));
    EXPECT_EQ(rig.checker->oracle().current(kX), 0xABu);
    EXPECT_EQ(rig.memory.read(kX), 0xABu);

    // Update protocols refresh the cached copies in place; the
    // invalidation family drops them instead.
    const ProtocolKind kind = GetParam();
    if (kind == ProtocolKind::Firefly || kind == ProtocolKind::Dragon) {
        EXPECT_NE(rig.state(1, kX), LineState::Invalid);
        EXPECT_NE(rig.state(2, kX), LineState::Invalid);
        EXPECT_EQ(rig.caches[1]->lineAt(kX).data[0], 0xABu);
        EXPECT_EQ(rig.caches[2]->lineAt(kX).data[0], 0xABu);
    } else {
        EXPECT_EQ(rig.state(1, kX), LineState::Invalid);
        EXPECT_EQ(rig.state(2, kX), LineState::Invalid);
    }

    // Either way, both CPUs observe the new value (every load below
    // is validated against the oracle).
    EXPECT_EQ(rig.read(1, kX), 0xABu);
    EXPECT_EQ(rig.read(2, kX), 0xABu);
    rig.checker->finalCheck();
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, DmaSharedLine,
    ::testing::Values(ProtocolKind::Firefly, ProtocolKind::Dragon,
                      ProtocolKind::WriteThroughInvalidate,
                      ProtocolKind::Berkeley, ProtocolKind::Mesi),
    [](const ::testing::TestParamInfo<ProtocolKind> &info) {
        return std::string(toString(info.param));
    });

/**
 * Regression: a 1-word DMA write into an 8-byte line another cache
 * holds Modified used to invalidate the whole line under MESI,
 * orphaning the dirty word the DMA did not touch.  The snoop must
 * merge instead and keep ownership.
 */
TEST(DmaPartialWrite, MesiDirtyLineMergesInsteadOfLosingData)
{
    Rig rig(checked(rigConfig(ProtocolKind::Mesi, 3, {256, 8})));
    rig.read(1, kX);
    rig.write(1, kX + 4, 0x11);  // silent E -> M
    ASSERT_EQ(rig.state(1, kX), LineState::Dirty);

    rig.dmaWrite(kX, {0x22});

    EXPECT_EQ(rig.state(1, kX), LineState::Dirty);  // still the owner
    EXPECT_EQ(rig.caches[1]->lineAt(kX).data[0], 0x22u);
    EXPECT_EQ(rig.caches[1]->lineAt(kX).data[1], 0x11u);
    EXPECT_EQ(rig.read(1, kX), 0x22u);
    EXPECT_EQ(rig.read(1, kX + 4), 0x11u);

    // Evict; the write-back must land both words in memory.
    rig.read(1, kX + 256);
    EXPECT_EQ(rig.memory.read(kX), 0x22u);
    EXPECT_EQ(rig.memory.read(kX + 4), 0x11u);
    rig.checker->finalCheck();
}

/** Same data-loss hazard in Berkeley's owning states. */
TEST(DmaPartialWrite, BerkeleySharedDirtyLineMergesInsteadOfLosingData)
{
    Rig rig(checked(rigConfig(ProtocolKind::Berkeley, 3, {256, 8})));
    rig.write(1, kX + 4, 0x11);  // ReadOwned -> Dirty
    rig.read(2, kX);             // owner supplies -> SharedDirty
    ASSERT_EQ(rig.state(1, kX), LineState::SharedDirty);

    rig.dmaWrite(kX, {0x22});

    // The owner merged and kept write-back responsibility.
    ASSERT_TRUE(needsWriteback(rig.state(1, kX)));
    EXPECT_EQ(rig.caches[1]->lineAt(kX).data[0], 0x22u);
    EXPECT_EQ(rig.caches[1]->lineAt(kX).data[1], 0x11u);
    EXPECT_EQ(rig.read(1, kX), 0x22u);
    EXPECT_EQ(rig.read(1, kX + 4), 0x11u);

    rig.read(1, kX + 256);  // evict: write-back carries both words
    EXPECT_EQ(rig.memory.read(kX), 0x22u);
    EXPECT_EQ(rig.memory.read(kX + 4), 0x11u);
    rig.checker->finalCheck();
}

/**
 * Regression: the I/O cache itself holding the line in an owning
 * state.  A partial DMA write through it must merge into the dirty
 * line, not launder it to clean and drop the unwritten dirty word.
 */
TEST(DmaPartialWrite, IoCacheOwnedLineKeepsDirtyWords)
{
    Rig rig(checked(rigConfig(ProtocolKind::Berkeley, 3, {256, 8})));
    rig.write(0, kX + 4, 0x11);  // the I/O cache owns the line
    rig.read(1, kX);             // ... as SharedDirty
    ASSERT_EQ(rig.state(0, kX), LineState::SharedDirty);

    rig.dmaWrite(kX, {0x22});

    ASSERT_TRUE(needsWriteback(rig.state(0, kX)));
    EXPECT_EQ(rig.caches[0]->lineAt(kX).data[0], 0x22u);
    EXPECT_EQ(rig.caches[0]->lineAt(kX).data[1], 0x11u);
    EXPECT_EQ(rig.read(0, kX + 4), 0x11u);
    rig.checker->finalCheck();
}

/**
 * Regression: the I/O cache used to adopt afterWriteThrough() after a
 * DMA write it carried - under Dragon that is SharedDirty (update
 * semantics: the writer becomes owner, memory stays stale), but a DMA
 * write DOES update memory, so the I/O cache minted a second owner
 * next to the snooping one (the fuzzer's I2 "multiple owners").  The
 * completing cache must take the clean fill state instead.
 */
TEST(DmaPartialWrite, DragonIoCacheDoesNotMintSecondOwner)
{
    Rig rig(checked(rigConfig(ProtocolKind::Dragon, 3)));
    rig.write(1, kX, 0x9);  // fill exclusive, silent write -> Dirty
    rig.read(0, kX);        // owner supplies; I/O cache shares
    ASSERT_EQ(rig.state(1, kX), LineState::SharedDirty);
    ASSERT_EQ(rig.state(0, kX), LineState::Shared);

    rig.dmaWrite(kX, {0x32});

    // Full-line DMA write: memory holds everything, nobody owes a
    // write-back, and in particular the I/O cache is NOT an owner.
    EXPECT_EQ(rig.state(0, kX), LineState::Shared);
    EXPECT_EQ(rig.state(1, kX), LineState::Shared);
    EXPECT_EQ(rig.memory.read(kX), 0x32u);
    EXPECT_EQ(rig.read(0, kX), 0x32u);
    EXPECT_EQ(rig.read(1, kX), 0x32u);
    rig.checker->finalCheck();
}

/**
 * Partial variant: the snooping owner keeps write-back duty for the
 * word the DMA missed, but the I/O cache's copy still ends clean -
 * exactly one owner either way.
 */
TEST(DmaPartialWrite, DragonPartialWriteLeavesExactlyOneOwner)
{
    Rig rig(checked(rigConfig(ProtocolKind::Dragon, 3, {256, 8})));
    rig.write(1, kX + 4, 0x11);  // Dirty, word 1 modified
    rig.read(0, kX);             // owner -> SharedDirty, I/O -> Shared
    ASSERT_EQ(rig.state(1, kX), LineState::SharedDirty);

    rig.dmaWrite(kX, {0x22});  // covers word 0 only

    EXPECT_EQ(rig.state(1, kX), LineState::SharedDirty);
    EXPECT_FALSE(needsWriteback(rig.state(0, kX)));
    EXPECT_EQ(rig.caches[1]->lineAt(kX).data[0], 0x22u);
    EXPECT_EQ(rig.caches[1]->lineAt(kX).data[1], 0x11u);

    rig.read(1, kX + 256);  // evict: the owner still carries word 1
    EXPECT_EQ(rig.memory.read(kX), 0x22u);
    EXPECT_EQ(rig.memory.read(kX + 4), 0x11u);
    rig.checker->finalCheck();
}

/** DMA reads see dirty data, validated against the oracle. */
TEST(DmaRead, SeesCpuDirtyDataEverywhere)
{
    for (const ProtocolKind kind :
         {ProtocolKind::Firefly, ProtocolKind::Dragon,
          ProtocolKind::Berkeley, ProtocolKind::Mesi}) {
        Rig rig(checked(rigConfig(kind, 3)));
        rig.read(1, kX);
        rig.write(1, kX, 0x77);
        const auto values = rig.dmaRead(kX, 1);
        ASSERT_EQ(values.size(), 1u);
        EXPECT_EQ(values[0], 0x77u) << toString(kind);
        rig.checker->finalCheck();
    }
}

/**
 * Regression: a one-word DMA read from a two-word Modified line used
 * to demote the owner to clean-shared even though the bus captured
 * only the requested word - the other dirty word was orphaned with
 * nobody owing the write-back (the fuzzer's I5 "no owner yet memory
 * differs from the oracle").  A DMA read installs no copy, so the
 * owner must keep the line.
 */
TEST(DmaRead, PartialReadDoesNotLaunderDirtyOwnership)
{
    for (const ProtocolKind kind :
         {ProtocolKind::Firefly, ProtocolKind::Dragon,
          ProtocolKind::Berkeley, ProtocolKind::Mesi}) {
        Rig rig(checked(rigConfig(kind, 3, {256, 8})));
        rig.write(1, kX, 0xAA);
        rig.write(1, kX + 4, 0xBB);
        ASSERT_TRUE(needsWriteback(rig.state(1, kX))) << toString(kind);

        const auto values = rig.dmaRead(kX + 4, 1);
        ASSERT_EQ(values.size(), 1u);
        EXPECT_EQ(values[0], 0xBBu) << toString(kind);

        // The owner still holds the line dirty...
        EXPECT_TRUE(needsWriteback(rig.state(1, kX))) << toString(kind);
        // ... so an eviction write-back carries BOTH words.
        rig.read(1, kX + 256);
        EXPECT_EQ(rig.memory.read(kX), 0xAAu) << toString(kind);
        EXPECT_EQ(rig.memory.read(kX + 4), 0xBBu) << toString(kind);
        rig.checker->finalCheck();
    }
}

/** A multi-word engine burst across lines CPUs are actively sharing. */
TEST(DmaBurst, WritesAcrossSharedLinesStayCoherent)
{
    Rig rig(checked(rigConfig(ProtocolKind::Firefly, 3)));
    for (unsigned w = 0; w < 4; ++w) {
        rig.read(1, kX + w * bytesPerWord);
        rig.read(2, kX + w * bytesPerWord);
    }
    rig.dmaWrite(kX, {1, 2, 3, 4});
    for (unsigned w = 0; w < 4; ++w) {
        EXPECT_EQ(rig.read(1, kX + w * bytesPerWord), w + 1);
        EXPECT_EQ(rig.read(2, kX + w * bytesPerWord), w + 1);
    }
    rig.checker->finalCheck();
}

/**
 * A squashed write-back must leave a new owner alone.  cache2 starts
 * evicting a Modified line; in the same cycle a full-line DMA write
 * and cache1's write miss queue for the bus ahead of it.  The DMA
 * write invalidates cache2's copy, cache1 takes the line with
 * MReadOwned and writes it, and cache2's write-back then finds its
 * line gone and drives nothing.  cache1 snoops that squashed MWrite
 * holding the only up-to-date copy: it must neither merge the stale
 * data nor drop the line.  Only the invalidation protocols squash.
 */
TEST(DmaSquashedWriteback, NewOwnerKeepsItsLine)
{
    for (const auto kind : {ProtocolKind::Berkeley, ProtocolKind::Mesi}) {
        Rig rig(checked(rigConfig(kind, 3, {256, 4})));
        const Addr conflict = kX + 256;  // same set, different tag
        rig.read(2, kX);
        rig.write(2, kX, 0x11);
        ASSERT_EQ(rig.state(2, kX), LineState::Dirty) << toString(kind);

        // One cycle, three requests; bus priority follows the cache
        // index, so the victim write-back goes last.
        unsigned done = 0;
        const auto count = [&](Word) { ++done; };
        ASSERT_EQ(rig.caches[2]
                      ->cpuAccess({conflict, RefType::DataRead, 0}, count)
                      .outcome,
                  Cache::AccessOutcome::Pending);
        rig.caches[0]->dmaAccess({kX, RefType::DataWrite, 0x22}, count);
        ASSERT_EQ(rig.caches[1]
                      ->cpuAccess({kX, RefType::DataWrite, 0x33}, count)
                      .outcome,
                  Cache::AccessOutcome::Pending);
        while (done < 3)
            rig.sim.run(1);

        EXPECT_EQ(rig.caches[2]->victimWrites.value(), 1u);
        EXPECT_EQ(rig.memory.read(kX), 0x22u) << "write-back not squashed";
        EXPECT_EQ(rig.state(1, kX), LineState::Dirty) << toString(kind);
        EXPECT_EQ(rig.read(1, kX), 0x33u) << toString(kind);
        rig.checker->finalCheck();
    }
}
