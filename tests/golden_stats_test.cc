/**
 * @file
 * Golden stat-tree digests: whole-machine statistics, pinned.
 *
 * The simulator's host-performance machinery - due-cycle gating of
 * Clocked components, lazily credited processor counters, the bus's
 * duplicate-tag snoop filter, integer-threshold random draws, the
 * flat memory chunk table - must not change a single simulated
 * number.  Each case runs a machine on the synthetic workload for a
 * fixed span and hashes its whole stat tree as `--stats-json` writes
 * it.  The expected digests were recorded before any of that
 * machinery existed, so a mismatch means simulated behaviour changed.
 * (They were re-recorded once since, when the export lost the
 * interrupt counters and the bus's count of ownership operations:
 * each new digest is the hash of the old text with those keys cut
 * out.)
 * Every case runs twice: gated with fast-forward, and with both off
 * (every component ticked every cycle).
 *
 * A second set pins the coherence protocols where the whole-machine
 * cases cannot reach: the fuzz corpus shapes (check::kFuzzShapes),
 * whose 2-word lines and DMA bursts drive partial DMA writes into
 * owned lines, squashed victim write-backs and Dragon's covered-line
 * rule.  Each such case hashes the bus and cache stat groups as they
 * stand at the last bus transaction's settle point (only cache hits
 * follow it), together with the run's cycle count.
 *
 * A third set pins the Topaz runtime and the I/O devices: a short
 * five-CPU Threads exerciser run to completion, and a run with
 * Ethernet and disk DMA through the I/O cache plus one MDC fill.  Each
 * hashes the machine's stat tree together with the runtime's or the
 * devices' own groups, so the runtime's memory layout and time slice
 * and the devices' timing are pinned along with the machine.
 *
 * A deliberate change to what the simulator computes or exports (a
 * timing fix, a new or deleted statistic) changes these digests too; re-record them then, and
 * say why in the change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>

#include "check/fuzz.hh"
#include "firefly/system.hh"
#include "io/disk.hh"
#include "io/ethernet.hh"
#include "io/mdc.hh"
#include "topaz/workloads.hh"

using namespace firefly;

namespace
{

struct GoldenCase
{
    bool cvax;  ///< CVAX with on-chip I+D caches, else MicroVAX
    unsigned cpus;
    ProtocolKind protocol;
    std::uint64_t digest;
};

constexpr Cycle kSpan = 400'000;

// Recorded with the configuration built by run() below.
constexpr GoldenCase kCases[] = {
    {false, 1, ProtocolKind::Firefly, 0x38629baeac60b935ULL},
    {false, 7, ProtocolKind::Firefly, 0x37f3eb9dbda11b8cULL},
    {false, 1, ProtocolKind::Dragon, 0x5342652d195ea47eULL},
    {false, 7, ProtocolKind::Dragon, 0xf427f9708e580ea4ULL},
    {false, 1, ProtocolKind::WriteThroughInvalidate, 0x584534dce2900fb9ULL},
    {false, 7, ProtocolKind::WriteThroughInvalidate, 0xb44cf841930adce1ULL},
    {false, 1, ProtocolKind::Berkeley, 0xcca035649fc378e3ULL},
    {false, 7, ProtocolKind::Berkeley, 0xc56ef79600b3f614ULL},
    {false, 1, ProtocolKind::Mesi, 0x8e48b947e7d52f51ULL},
    {false, 7, ProtocolKind::Mesi, 0xb38f10d36bcff11fULL},
    {true, 1, ProtocolKind::Firefly, 0x4b30c5c068022786ULL},
    {true, 7, ProtocolKind::Firefly, 0x36b84a6b30f93871ULL},
    {true, 1, ProtocolKind::Dragon, 0x97e11de38c396ec1ULL},
    {true, 7, ProtocolKind::Dragon, 0x10839e9dfbe7724cULL},
    {true, 1, ProtocolKind::WriteThroughInvalidate, 0xfc0879583b4b87caULL},
    {true, 7, ProtocolKind::WriteThroughInvalidate, 0x6638de51ef0b6a8fULL},
    {true, 1, ProtocolKind::Berkeley, 0xaf348649a59806c4ULL},
    {true, 7, ProtocolKind::Berkeley, 0xcb35ce6ced5f5e31ULL},
    {true, 1, ProtocolKind::Mesi, 0xe645bec7d2c2ae04ULL},
    {true, 7, ProtocolKind::Mesi, 0xe5b2fd6b8d16b545ULL},
};

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
run(const GoldenCase &c, bool gated)
{
    FireflyConfig cfg = c.cvax ? FireflyConfig::cvax(c.cpus)
                               : FireflyConfig::microVax(c.cpus);
    cfg.protocol = c.protocol;
    if (c.cvax)
        cfg.onChipMode = OnChipCache::DataMode::InstructionsAndData;
    FireflySystem sys(cfg);
    sys.simulator().setFastForward(gated);
    sys.attachSyntheticWorkload(SyntheticConfig{});
    sys.simulator().run(kSpan);
    std::ostringstream os;
    sys.stats().dumpJson(os);
    return fnv1a(os.str());
}

std::string
caseName(const GoldenCase &c)
{
    std::string name = toString(c.protocol);
    name += c.cvax ? "_Cvax" : "_MicroVax";
    return name + std::to_string(c.cpus);
}

// gtest prints a parameter into the test's listed name; without this
// it would print the raw bytes, digest included.
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class GoldenStats : public ::testing::TestWithParam<GoldenCase>
{
};

} // namespace

TEST_P(GoldenStats, DigestMatchesRecordedOnBothPaths)
{
    const GoldenCase &c = GetParam();
    EXPECT_EQ(run(c, true), c.digest) << "gated, fast-forward on";
    EXPECT_EQ(run(c, false), c.digest) << "every cycle ticked";
}

INSTANTIATE_TEST_SUITE_P(
    Machines, GoldenStats, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return caseName(info.param);
    });

namespace
{

struct GoldenFuzzCase
{
    unsigned shape;  ///< index into check::kFuzzShapes
    ProtocolKind protocol;
    std::uint64_t digest;
};

constexpr std::uint64_t kFuzzSeed = 0x601D;
constexpr const char *kShapeTags[] = {"OneWord", "TwoWordDma",
                                      "FourCaches"};
static_assert(std::size(kShapeTags) == std::size(check::kFuzzShapes));

// Recorded with the configuration built by runFuzzCase() below.
constexpr GoldenFuzzCase kFuzzCases[] = {
    {0, ProtocolKind::Firefly, 0x7677a55f21836147ULL},
    {0, ProtocolKind::Dragon, 0x855f5f0e4e121da1ULL},
    {0, ProtocolKind::WriteThroughInvalidate, 0xf7dec52b7f990739ULL},
    {0, ProtocolKind::Berkeley, 0xef7db90bc6d50096ULL},
    {0, ProtocolKind::Mesi, 0x87b146d6ebdc1c32ULL},
    {1, ProtocolKind::Firefly, 0xdb061e7743f4c658ULL},
    {1, ProtocolKind::Dragon, 0xc8c7967c2422de12ULL},
    {1, ProtocolKind::WriteThroughInvalidate, 0x91a8b86bbf5d4068ULL},
    {1, ProtocolKind::Berkeley, 0x4e7afd2de0fb916cULL},
    {1, ProtocolKind::Mesi, 0x305a0e9a3861496cULL},
    {2, ProtocolKind::Firefly, 0x44ed1637adbcda76ULL},
    {2, ProtocolKind::Dragon, 0xd23c8d67b5ff2b54ULL},
    {2, ProtocolKind::WriteThroughInvalidate, 0x3d2e460838c68ce6ULL},
    {2, ProtocolKind::Berkeley, 0xedf3035fdab4d883ULL},
    {2, ProtocolKind::Mesi, 0x20fe2d6a9071948fULL},
};

std::uint64_t
runFuzzCase(const GoldenFuzzCase &c)
{
    check::FuzzConfig cfg;
    cfg.protocol = c.protocol;
    cfg.seed = kFuzzSeed;
    check::kFuzzShapes[c.shape].apply(cfg);
    std::string last;
    cfg.onBuilt = [&last](check::Rig &m) {
        m.bus.addSettleObserver([&last, &m](const MBusTransaction &) {
            std::ostringstream os;
            m.bus.stats().dumpJson(os);
            for (const auto &cache : m.caches)
                cache->stats().dumpJson(os);
            last = os.str();
        });
    };
    const check::FuzzResult result = check::runFuzz(cfg);
    return fnv1a(last + std::to_string(result.cycles));
}

std::string
fuzzCaseName(const GoldenFuzzCase &c)
{
    return std::string(toString(c.protocol)) + "_" + kShapeTags[c.shape];
}

void
PrintTo(const GoldenFuzzCase &c, std::ostream *os)
{
    *os << fuzzCaseName(c);
}

class GoldenFuzzStats : public ::testing::TestWithParam<GoldenFuzzCase>
{
};

} // namespace

TEST_P(GoldenFuzzStats, DigestMatchesRecorded)
{
    const GoldenFuzzCase &c = GetParam();
    const std::uint64_t digest = runFuzzCase(c);
    EXPECT_EQ(digest, c.digest) << std::hex << "0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(
    FuzzShapes, GoldenFuzzStats, ::testing::ValuesIn(kFuzzCases),
    [](const ::testing::TestParamInfo<GoldenFuzzCase> &info) {
        return fuzzCaseName(info.param);
    });

namespace
{

std::string
statsJson(StatGroup &group)
{
    std::ostringstream os;
    group.dumpJson(os);
    return os.str();
}

} // namespace

TEST(GoldenWorkloads, TopazExerciserDigestMatchesRecorded)
{
    // Recorded with this configuration.
    constexpr std::uint64_t kDigest = 0x456c087db7e3dccfULL;
    constexpr unsigned kCpus = 5;
    FireflySystem sys(FireflyConfig::microVax(kCpus));
    TopazConfig tc;
    tc.cpus = kCpus;
    tc.seed = 0x7a2;
    TopazRuntime runtime(tc);
    ExerciserParams params;
    params.threads = 8;
    params.iterations = 20;
    buildThreadsExerciser(runtime, params);
    std::vector<RefSource *> sources;
    for (unsigned i = 0; i < kCpus; ++i)
        sources.push_back(&runtime.port(i));
    sys.attachSources(sources);
    sys.runToCompletion(50'000'000);
    ASSERT_TRUE(runtime.done());

    const std::uint64_t digest =
        fnv1a(statsJson(sys.stats()) + statsJson(runtime.stats()));
    EXPECT_EQ(digest, kDigest) << std::hex << "0x" << digest;
}

TEST(GoldenWorkloads, IoDevicesDigestMatchesRecorded)
{
    // Recorded with this configuration: two processors on a short
    // synthetic burst, while two back-to-back Ethernet controllers,
    // a disk and the MDC move data through the I/O cache.
    constexpr std::uint64_t kDigest = 0x8035157a0b73ef57ULL;
    constexpr Addr kBuffers = 0x0030'0000;
    FireflySystem sys(FireflyConfig::microVax(2));
    SyntheticConfig sc;
    sc.instructionLimit = 20'000;
    sys.attachSyntheticWorkload(sc);
    Simulator &sim = sys.simulator();
    QBus qbus(sim, sys.ioCache(), sys.config().ioAddressLimit());
    qbus.identityMap();

    EthernetController net0(sim, qbus, "net0");
    EthernetController net1(sim, qbus, "net1");
    net0.connectTo(&net1);
    for (unsigned i = 0; i < 4; ++i) {
        sys.memory().write(kBuffers + 4 * i, 0x1234'0000 + i);
        net1.addReceiveBuffer(kBuffers + 0x1000 + i * 2048, 2048);
    }
    net0.transmit(kBuffers, 1500, [](IoStatus) {});
    net0.transmit(kBuffers, 64, [](IoStatus) {});
    net0.addReceiveBuffer(kBuffers + 0x4000, 2048);
    net0.injectFromWire(std::vector<Word>(250, 0x5a5a'0001), 1000);

    DiskController disk(sim, qbus, "disk0");
    disk.write(100, 8, kBuffers, [&](IoStatus) {
        disk.read(9000, 4, kBuffers + 0x8000, [](IoStatus) {});
    });

    Mdc::Config mdc_cfg;
    mdc_cfg.queueBase = kBuffers + 0x10000;
    mdc_cfg.inputBase = kBuffers + 0x11000;
    Mdc mdc(sim, qbus, mdc_cfg);
    mdc.start();
    mdc.queue().enqueue(sys.memory(),
                        Mdc::encodeFill(16, 32, 200, 100, RasterOp::Set));

    sim.run(1'000'000);
    ASSERT_EQ(mdc.commandsExecuted.value(), 1u);
    ASSERT_EQ(disk.reads.value(), 1u);
    ASSERT_EQ(net1.rxPackets.value(), 2u);

    const std::uint64_t digest = fnv1a(
        statsJson(sys.stats()) + statsJson(qbus.stats()) +
        statsJson(qbus.engine().stats()) + statsJson(net0.stats()) +
        statsJson(net1.stats()) + statsJson(disk.stats()) +
        statsJson(mdc.stats()) + std::to_string(sim.now()));
    EXPECT_EQ(digest, kDigest) << std::hex << "0x" << digest;
}
