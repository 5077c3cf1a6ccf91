/**
 * @file
 * Randomized property tests: every protocol, driven by a random
 * multiprocessor reference stream over a small, conflict-heavy
 * address space, must satisfy
 *
 *   P1. every read returns the value of the most recent write to that
 *       address (accesses here are serialized, so this is exact);
 *   P2. all valid cached copies of an address agree;
 *   P3. after flushing every cache, memory equals the write history;
 *   P4. (Firefly) a Dirty line is exclusive, and every clean cached
 *       copy equals main memory - the invariants Section 5.1's
 *       argument relies on.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "sim/random.hh"
#include "test_util.hh"

using namespace firefly;
using firefly::test::TestRig;

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

} // namespace

class CoherenceStress : public ::testing::TestWithParam<StressParams>
{
};

TEST_P(CoherenceStress, RandomTrafficMatchesOracle)
{
    const auto &p = GetParam();
    // Tiny cache (64 lines) to force constant conflict evictions.
    TestRig rig(p.kind, p.caches, {64 * p.lineBytes, p.lineBytes});
    Rng rng(0xc0ffee + p.caches + p.lineBytes + p.addresses);

    std::map<Addr, Word> oracle;
    const Addr base = 0x8000;
    Word next_value = 1;

    for (int step = 0; step < 4000; ++step) {
        const unsigned who = rng.below(p.caches);
        const Addr addr =
            base + 4 * static_cast<Addr>(rng.below(p.addresses));

        if (rng.chance(0.4)) {
            const Word value = next_value++;
            rig.write(who, addr, value);
            oracle[addr] = value;
        } else {
            const Word got = rig.read(who, addr);
            const auto it = oracle.find(addr);
            const Word expect = it == oracle.end() ? 0 : it->second;
            ASSERT_EQ(got, expect)
                << "P1 violated at step " << step << " addr 0x"
                << std::hex << addr;
        }

        if (step % 64 == 0) {
            // P2: copies agree.
            for (const auto &[a, v] : oracle) {
                bool have = false;
                Word seen = 0;
                for (auto &cache : rig.caches) {
                    if (!cache->holds(a))
                        continue;
                    const auto &line = cache->lineAt(a);
                    const Word w = line.data[(a - line.base) / 4];
                    if (!have) {
                        seen = w;
                        have = true;
                    } else {
                        ASSERT_EQ(w, seen) << "P2 violated at 0x"
                                           << std::hex << a;
                    }
                }
            }
        }
    }

    // P3: flush everything; memory must equal the oracle.
    for (auto &cache : rig.caches)
        cache->flushFunctional();
    for (const auto &[a, v] : oracle)
        ASSERT_EQ(rig.memory.read(a), v) << "P3 violated";
}

TEST_P(CoherenceStress, DeterministicGivenSeed)
{
    const auto &p = GetParam();
    auto run = [&](std::uint64_t seed) {
        TestRig rig(p.kind, p.caches, {64 * p.lineBytes, p.lineBytes});
        Rng rng(seed);
        for (int step = 0; step < 500; ++step) {
            const unsigned who = rng.below(p.caches);
            const Addr addr = 0x8000 + 4 * (rng.below(p.addresses));
            if (rng.chance(0.5))
                rig.write(who, addr, step);
            else
                rig.read(who, addr);
        }
        return std::tuple{rig.sim.now(),
                          rig.bus->stats().get("busy_cycles"),
                          rig.caches[0]->fills.value()};
    };
    EXPECT_EQ(run(123), run(123));
}

namespace
{

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

INSTANTIATE_TEST_SUITE_P(Sweep, CoherenceStress, ::testing::ValuesIn(kSweep),
                         paramName);

// ---------------------------------------------------------------------------
// Firefly-specific invariants (P4) under random traffic.
// ---------------------------------------------------------------------------

TEST(FireflyInvariants, DirtyImpliesExclusiveAndCleanMatchesMemory)
{
    TestRig rig(ProtocolKind::Firefly, 4, {256, 4});
    Rng rng(77);
    const Addr base = 0x8000;

    for (int step = 0; step < 3000; ++step) {
        const unsigned who = rng.below(4u);
        const Addr addr = base + 4 * (rng.below(48u));
        if (rng.chance(0.45))
            rig.write(who, addr, step);
        else
            rig.read(who, addr);

        if (step % 32 != 0)
            continue;
        for (Addr a = base; a < base + 4 * 48; a += 4) {
            unsigned holders = 0;
            unsigned dirty_holders = 0;
            for (auto &cache : rig.caches) {
                if (!cache->holds(a))
                    continue;
                ++holders;
                const auto &line = cache->lineAt(a);
                if (line.state == LineState::Dirty) {
                    ++dirty_holders;
                } else {
                    // Clean copy must equal main memory.
                    ASSERT_EQ(line.data[0], rig.memory.read(a))
                        << "clean copy differs from memory at 0x"
                        << std::hex << a;
                }
            }
            if (dirty_holders > 0) {
                ASSERT_EQ(holders, 1u)
                    << "dirty line not exclusive at 0x" << std::hex << a;
            }
        }
    }
}

TEST(FireflyInvariants, SharedTagIsConservative)
{
    // The paper: "Shared indicates that some other cache *may* also
    // contain the line."  The converse must hold strictly: if a line
    // is NOT marked Shared, no other cache may hold it (otherwise a
    // silent write would break coherence).
    TestRig rig(ProtocolKind::Firefly, 3, {256, 4});
    Rng rng(99);
    const Addr base = 0x8000;

    for (int step = 0; step < 2000; ++step) {
        const unsigned who = rng.below(3u);
        const Addr addr = base + 4 * (rng.below(32u));
        if (rng.chance(0.45))
            rig.write(who, addr, step);
        else
            rig.read(who, addr);

        if (step % 16 != 0)
            continue;
        for (Addr a = base; a < base + 4 * 32; a += 4) {
            for (unsigned i = 0; i < rig.caches.size(); ++i) {
                if (!rig.caches[i]->holds(a))
                    continue;
                const auto state = rig.caches[i]->lineAt(a).state;
                if (state != LineState::Valid &&
                    state != LineState::Dirty)
                    continue;
                for (unsigned j = 0; j < rig.caches.size(); ++j) {
                    if (j != i) {
                        ASSERT_FALSE(rig.caches[j]->holds(a))
                            << "unshared-tagged line held elsewhere";
                    }
                }
            }
        }
    }
}

TEST(FireflyInvariants, RandomDmaTrafficStaysCoherent)
{
    // Mix DMA through cache 0 (the I/O processor) with CPU traffic
    // on the other caches, Firefly protocol.
    TestRig rig(ProtocolKind::Firefly, 3, {256, 4});
    Rng rng(555);
    std::map<Addr, Word> oracle;
    const Addr base = 0x8000;
    Word next_value = 1;

    auto dma = [&](bool write, Addr addr, Word value) -> Word {
        bool done = false;
        Word got = 0;
        rig.caches[0]->dmaAccess(
            {addr, write ? RefType::DataWrite : RefType::DataRead,
             value},
            [&](Word w) { done = true; got = w; });
        while (!done)
            rig.sim.run(1);
        return got;
    };

    for (int step = 0; step < 3000; ++step) {
        const Addr addr = base + 4 * (rng.below(32u));
        const int action = rng.below(4);
        if (action == 0) {
            const Word v = next_value++;
            dma(true, addr, v);
            oracle[addr] = v;
        } else if (action == 1) {
            const Word got = dma(false, addr, 0);
            const auto it = oracle.find(addr);
            ASSERT_EQ(got, it == oracle.end() ? 0 : it->second)
                << "DMA read incoherent at step " << step;
        } else if (action == 2) {
            const Word v = next_value++;
            rig.write(1 + rng.below(2u), addr, v);
            oracle[addr] = v;
        } else {
            const unsigned who = 1 + rng.below(2u);
            const Word got = rig.read(who, addr);
            const auto it = oracle.find(addr);
            ASSERT_EQ(got, it == oracle.end() ? 0 : it->second)
                << "CPU read incoherent at step " << step;
        }
    }
    for (auto &cache : rig.caches)
        cache->flushFunctional();
    for (const auto &[a, v] : oracle)
        ASSERT_EQ(rig.memory.read(a), v);
}
