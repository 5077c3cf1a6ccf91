/**
 * @file
 * Tests for the Firefly coherence protocol - the paper's Figure 3
 * state machine and the conditional write-through behaviour of
 * Section 5.1, transition by transition.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "check/rig.hh"

using namespace firefly;
using firefly::check::Rig;
using firefly::check::rigConfig;

namespace
{

constexpr Addr kA = 0x1000;

struct FireflyRig : Rig
{
    FireflyRig() : Rig(rigConfig(ProtocolKind::Firefly, 3)) {}

    double
    busWrites()
    {
        return bus.stats().get("writes");
    }
};

} // namespace

TEST(FireflyProtocol, ReadMissInstallsValidWhenUnshared)
{
    FireflyRig rig;
    rig.memory.write(kA, 42);
    EXPECT_EQ(rig.read(0, kA), 42u);
    EXPECT_EQ(rig.state(0, kA), LineState::Valid);
    EXPECT_EQ(rig.caches[0]->fills.value(), 1u);
}

TEST(FireflyProtocol, ReadMissInstallsSharedWhenAnotherCacheHolds)
{
    FireflyRig rig;
    rig.memory.write(kA, 42);
    rig.read(0, kA);
    EXPECT_EQ(rig.read(1, kA), 42u);
    // Both the new holder and the old holder end up Shared.
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    // The data came from cache 0, with memory inhibited.
    EXPECT_EQ(rig.bus.stats().get("cache_supplied"), 1.0);
}

TEST(FireflyProtocol, ReadHitNeedsNoBus)
{
    FireflyRig rig;
    rig.read(0, kA);
    const double reads_before = rig.bus.stats().get("reads");
    for (int i = 0; i < 5; ++i)
        rig.read(0, kA);
    EXPECT_EQ(rig.bus.stats().get("reads"), reads_before);
}

TEST(FireflyProtocol, WriteHitOnValidGoesDirtySilently)
{
    FireflyRig rig;
    rig.read(0, kA);
    EXPECT_EQ(rig.state(0, kA), LineState::Valid);
    const double writes_before = rig.busWrites();
    rig.write(0, kA, 7);
    EXPECT_EQ(rig.state(0, kA), LineState::Dirty);
    EXPECT_EQ(rig.busWrites(), writes_before);  // pure write-back
    EXPECT_EQ(rig.read(0, kA), 7u);
    // Memory still stale: the dirty data lives only in the cache.
    EXPECT_EQ(rig.memory.read(kA), 0u);
}

TEST(FireflyProtocol, WriteHitOnDirtyStaysDirtySilently)
{
    FireflyRig rig;
    rig.read(0, kA);
    rig.write(0, kA, 1);
    const double writes_before = rig.busWrites();
    rig.write(0, kA, 2);
    EXPECT_EQ(rig.state(0, kA), LineState::Dirty);
    EXPECT_EQ(rig.busWrites(), writes_before);
}

TEST(FireflyProtocol, WriteHitOnSharedWritesThroughAndUpdates)
{
    FireflyRig rig;
    rig.read(0, kA);
    rig.read(1, kA);
    ASSERT_EQ(rig.state(0, kA), LineState::Shared);

    rig.write(0, kA, 99);
    // Write-through: memory updated, the other cache updated in
    // place, and the writer saw MShared so it stays Shared.
    EXPECT_EQ(rig.memory.read(kA), 99u);
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    EXPECT_EQ(rig.caches[0]->wtMshared.value(), 1u);
    // The sharer reads the new value with no further bus traffic.
    const double reads_before = rig.bus.stats().get("reads");
    EXPECT_EQ(rig.read(1, kA), 99u);
    EXPECT_EQ(rig.bus.stats().get("reads"), reads_before);
    EXPECT_EQ(rig.caches[1]->updatesReceived.value(), 1u);
}

TEST(FireflyProtocol, LastSharerReversion)
{
    // "When a location ceases to be shared, only one extra
    // write-through is done by the last cache that contains the
    // location."
    FireflyRig rig;
    rig.read(0, kA);
    rig.read(1, kA);
    // Evict cache 1's copy with a conflicting address (same index).
    const Addr conflicting = kA + 16 * 1024;
    rig.read(1, conflicting);
    ASSERT_EQ(rig.state(1, kA), LineState::Invalid);

    // Cache 0 still believes the line is shared: the next write is
    // the one extra write-through, which returns no MShared...
    rig.write(0, kA, 5);
    EXPECT_EQ(rig.caches[0]->wtNoMshared.value(), 1u);
    // ...so the Shared tag clears and the cache reverts to
    // write-back: the following write is silent.
    EXPECT_EQ(rig.state(0, kA), LineState::Valid);
    const double writes_before = rig.busWrites();
    rig.write(0, kA, 6);
    EXPECT_EQ(rig.busWrites(), writes_before);
    EXPECT_EQ(rig.state(0, kA), LineState::Dirty);
}

TEST(FireflyProtocol, LongwordWriteMissSkipsFillRead)
{
    FireflyRig rig;
    const double reads_before = rig.bus.stats().get("reads");
    rig.write(0, kA, 31);
    // No MRead was needed: the write covered the whole 4-byte line.
    EXPECT_EQ(rig.bus.stats().get("reads"), reads_before);
    EXPECT_EQ(rig.busWrites(), 1.0);
    // Line installed clean; no other holder, so it is Valid.
    EXPECT_EQ(rig.state(0, kA), LineState::Valid);
    EXPECT_EQ(rig.memory.read(kA), 31u);
    EXPECT_EQ(rig.read(0, kA), 31u);
}

TEST(FireflyProtocol, WriteMissInstallsSharedWhenOthersHold)
{
    FireflyRig rig;
    rig.read(1, kA);
    rig.write(0, kA, 12);
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    EXPECT_EQ(rig.read(1, kA), 12u);  // updated in place
}

TEST(FireflyProtocol, DirtyMissWritesVictimFirst)
{
    FireflyRig rig;
    rig.write(0, kA, 77);  // install...
    rig.write(0, kA, 78);  // ...and dirty the line
    ASSERT_EQ(rig.state(0, kA), LineState::Dirty);
    ASSERT_EQ(rig.memory.read(kA), 77u);  // only the WT reached memory

    const Addr conflicting = kA + 16 * 1024;
    rig.memory.write(conflicting, 5);
    EXPECT_EQ(rig.read(0, conflicting), 5u);
    // The dirty victim went back to memory before the fill.
    EXPECT_EQ(rig.caches[0]->victimWrites.value(), 1u);
    EXPECT_EQ(rig.memory.read(kA), 78u);
}

TEST(FireflyProtocol, CleanVictimNotWrittenBack)
{
    FireflyRig rig;
    rig.read(0, kA);
    rig.read(0, kA + 16 * 1024);  // evicts the clean line
    EXPECT_EQ(rig.caches[0]->victimWrites.value(), 0u);
}

TEST(FireflyProtocol, DirtySupplierDropsToSharedAndMemoryCaptures)
{
    FireflyRig rig;
    rig.write(0, kA, 10);
    rig.write(0, kA, 11);  // Dirty in cache 0, memory holds 10
    ASSERT_EQ(rig.memory.read(kA), 10u);

    EXPECT_EQ(rig.read(1, kA), 11u);  // supplied by cache 0
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    // Memory captured the supplied data, so shared copies are clean.
    EXPECT_EQ(rig.memory.read(kA), 11u);
}

TEST(FireflyProtocol, WriteMissOverDirtyRemoteCopy)
{
    FireflyRig rig;
    rig.write(0, kA, 1);
    rig.write(0, kA, 2);  // Dirty in cache 0
    rig.write(1, kA, 3);  // write miss elsewhere: write-through
    // The old dirty holder merged the new value and went clean.
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    EXPECT_EQ(rig.memory.read(kA), 3u);
    EXPECT_EQ(rig.read(0, kA), 3u);
    EXPECT_EQ(rig.read(1, kA), 3u);
}

TEST(FireflyProtocol, ThreeWaySharingStaysCoherent)
{
    FireflyRig rig;
    rig.read(0, kA);
    rig.read(1, kA);
    rig.read(2, kA);
    rig.write(1, kA, 1234);
    EXPECT_EQ(rig.read(0, kA), 1234u);
    EXPECT_EQ(rig.read(2, kA), 1234u);
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
    EXPECT_EQ(rig.state(1, kA), LineState::Shared);
    EXPECT_EQ(rig.state(2, kA), LineState::Shared);
}

TEST(FireflyProtocol, WriteThroughContinuesWhileShared)
{
    // The paper's noted disadvantage: write-through persists as long
    // as the datum sits in more than one cache, even if only one
    // processor uses it (motivates the migration-averse scheduler).
    FireflyRig rig;
    rig.read(0, kA);
    rig.read(1, kA);
    for (int i = 0; i < 10; ++i)
        rig.write(0, kA, i);
    EXPECT_EQ(rig.caches[0]->wtMshared.value(), 10u);
    EXPECT_EQ(rig.state(0, kA), LineState::Shared);
}

TEST(FireflyProtocol, SnoopProbeMakesTagStoreBusy)
{
    // Cache 1 misses on a line cache 0 holds.  In the cycle the bus
    // probes cache 0's tags, cache 0's processor access must retry; a
    // cycle later the tag store is free and the access hits.
    FireflyRig rig;
    rig.read(0, kA);
    struct Cpu0 : Clocked
    {
        Cache &cache;
        const MBus &bus;
        std::vector<std::pair<Cycle, Cache::AccessOutcome>> log;
        Cpu0(Cache &c, const MBus &b) : cache(c), bus(b) {}
        void
        tick(Cycle now) override
        {
            // Read once in the cycle the bus probes this cache (its
            // first snoop call) and once in the next.
            if (log.size() == 2 || (log.empty() && bus.snoopCalls() == 0))
                return;
            const MemRef ref{kA, RefType::DataRead, 0};
            log.emplace_back(now, cache.cpuAccess(ref, {}).outcome);
        }
    } cpu0(*rig.caches[0], rig.bus);
    rig.sim.addClocked(&cpu0, Phase::Cpu);
    rig.read(1, kA);

    EXPECT_EQ(rig.bus.snoopCalls(), 1u);
    ASSERT_EQ(cpu0.log.size(), 2u);
    EXPECT_EQ(cpu0.log[0].second, Cache::AccessOutcome::RetryTagBusy);
    EXPECT_EQ(cpu0.log[1].first, cpu0.log[0].first + 1);
    EXPECT_EQ(cpu0.log[1].second, Cache::AccessOutcome::Hit);
    EXPECT_EQ(rig.caches[0]->tagBusyRetries.value(), 1u);
}

TEST(FireflyProtocol, InstructionReadsBehaveLikeDataReads)
{
    FireflyRig rig;
    rig.memory.write(kA, 0x55);
    EXPECT_EQ(rig.access(0, {kA, RefType::InstrRead, 0}), 0x55u);
    EXPECT_EQ(rig.state(0, kA), LineState::Valid);
    EXPECT_EQ(rig.caches[0]->refsInstr.value(), 1u);
}

TEST(FireflyProtocol, FlushWritesDirtyLinesToMemory)
{
    FireflyRig rig;
    rig.write(0, kA, 1);
    rig.write(0, kA, 2);
    rig.write(0, kA + 4, 3);
    rig.write(0, kA + 4, 4);
    rig.caches[0]->flushFunctional();
    EXPECT_EQ(rig.memory.read(kA), 2u);
    EXPECT_EQ(rig.memory.read(kA + 4), 4u);
    EXPECT_EQ(rig.state(0, kA), LineState::Invalid);
}

TEST(FireflyProtocol, MissTimingIsOneExtraTickWhenBusFree)
{
    // "Misses add only one cycle to a MicroVAX CPU access" - a fill
    // on an idle bus completes within ~5 bus cycles of issue.
    FireflyRig rig;
    const Cycle start = rig.sim.now();
    rig.read(0, kA);
    EXPECT_LE(rig.sim.now() - start, 6u);
}

TEST(FireflyProtocol, DmaReadThroughCacheSeesDirtyData)
{
    FireflyRig rig;
    rig.write(1, kA, 5);
    rig.write(1, kA, 6);  // dirty in cache 1

    // DMA read through cache 0 (the I/O processor's cache): the bus
    // snoop gets the fresh value from cache 1.
    EXPECT_EQ(rig.dmaRead(kA, 1), std::vector<Word>{6});
    // DMA misses do not allocate.
    EXPECT_FALSE(rig.caches[0]->holds(kA));
    EXPECT_EQ(rig.caches[0]->dmaReadMisses.value(), 1u);
}

TEST(FireflyProtocol, DmaWriteUpdatesSharersAndMemory)
{
    FireflyRig rig;
    rig.read(1, kA);
    rig.read(2, kA);

    rig.dmaWrite(kA, {321});
    EXPECT_EQ(rig.memory.read(kA), 321u);
    EXPECT_EQ(rig.read(1, kA), 321u);
    EXPECT_EQ(rig.read(2, kA), 321u);
    EXPECT_FALSE(rig.caches[0]->holds(kA));  // no allocate
}

TEST(FireflyProtocol, StateNamesMatchPaperFigure3)
{
    EXPECT_STREQ(toString(LineState::Valid), "Valid");
    EXPECT_STREQ(toString(LineState::Dirty), "Dirty");
    EXPECT_STREQ(toString(LineState::Shared), "Shared");
    EXPECT_STREQ(toString(LineState::Invalid), "Invalid");
}
