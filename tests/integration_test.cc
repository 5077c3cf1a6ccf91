/**
 * @file
 * Whole-machine integration tests: processors, caches, bus, Topaz
 * runtime and I/O devices running together, with the invariants that
 * matter across subsystem boundaries - coherence under DMA
 * interference, fixed-priority bus behaviour, full-system
 * determinism, and the 24-bit address-space constraints.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "firefly/system.hh"
#include "io/disk.hh"
#include "io/ethernet.hh"
#include "io/mdc.hh"
#include "topaz/workloads.hh"

using namespace firefly;

namespace
{

constexpr Addr kIoBuffers = 0x0030'0000;

} // namespace

TEST(Integration, FullMachineWithAllDevices)
{
    // The standard machine with disk, network and display all active
    // while four processors run the calibrated workload.
    FireflySystem sys(FireflyConfig::microVax(4));
    sys.attachSyntheticWorkload(SyntheticConfig{});

    QBus qbus(sys.simulator(), sys.ioCache(),
              sys.config().ioAddressLimit());
    qbus.identityMap();

    DiskController disk(sys.simulator(), qbus, "disk");
    EthernetController nic(sys.simulator(), qbus, "net0");
    Mdc::Config mdc_cfg;
    mdc_cfg.queueBase = kIoBuffers;
    mdc_cfg.inputBase = kIoBuffers + 0x1000;
    Mdc mdc(sys.simulator(), qbus, mdc_cfg);
    mdc.start();

    // Keep the devices busy: periodic disk writes and rx packets.
    int disk_done = 0;
    std::function<void()> disk_loop = [&] {
        disk.write((disk_done * 64) % 1000, 2, kIoBuffers + 0x2000,
                   [&](IoStatus) {
                       ++disk_done;
                       disk_loop();
                   });
    };
    disk_loop();
    for (int i = 0; i < 20; ++i) {
        nic.addReceiveBuffer(kIoBuffers + 0x4000 + (i % 4) * 2048,
                             2048);
        nic.injectFromWire(std::vector<Word>(375, i), 1500);
    }

    sys.run(0.05);

    for (unsigned i = 0; i < 4; ++i)
        EXPECT_GT(sys.cpu(i).instructions(), 5000u);
    EXPECT_GT(disk_done, 0);
    EXPECT_GT(nic.rxPackets.value(), 0u);
    EXPECT_GE(mdc.deposits.value(), 2u);
    EXPECT_GT(sys.busLoad(), 0.2);
    EXPECT_LT(sys.busLoad(), 1.0);
}

TEST(Integration, LockedCountersExactUnderDmaInterference)
{
    // The strongest cross-subsystem invariant: Topaz lock-protected
    // counters (real read-modify-writes) stay exact while DMA
    // hammers the same memory system through the I/O cache.
    FireflySystem sys(FireflyConfig::microVax(3));
    TopazConfig tc;
    tc.cpus = 3;
    TopazRuntime runtime(tc);
    ExerciserParams params;
    params.threads = 6;
    params.iterations = 60;
    const auto expected = buildThreadsExerciser(runtime, params);

    std::vector<RefSource *> sources;
    for (unsigned i = 0; i < 3; ++i)
        sources.push_back(&runtime.port(i));
    sys.attachSources(sources);

    QBus qbus(sys.simulator(), sys.ioCache(),
              sys.config().ioAddressLimit());
    qbus.identityMap();
    std::function<void()> feed = [&] {
        qbus.engine().writeWords(kIoBuffers,
                                 std::vector<Word>(64, 0xd0d0d0d0),
                                 [&](IoStatus) { feed(); });
    };
    feed();

    sys.runToCompletion(100'000'000);
    ASSERT_TRUE(sys.allHalted());

    for (unsigned i = 0; i < 3; ++i)
        sys.cache(i).flushFunctional();
    std::uint64_t total = 0;
    for (unsigned c = 0; c < TopazConfig::counters; ++c)
        total += sys.memory().read(runtime.counterAddr(c));
    EXPECT_EQ(total, expected);
    EXPECT_EQ(runtime.deadlockBreaks.value(), 0u);
    EXPECT_GT(qbus.engine().wordsWritten.value(), 1000u);
}

TEST(Integration, FixedPriorityNeverStarvesCompletely)
{
    // The paper: fixed priority "reduces the delays incurred by high
    // priority caches at the expense of those with lower priority."
    // Under heavy load the last CPU must be slower but still make
    // progress.
    FireflySystem sys(FireflyConfig::microVax(7));
    SyntheticConfig workload;
    workload.dataReuseProb = 0.3;  // miss-heavy: saturate the bus
    workload.writeReuseProb = 0.1;
    workload.loopBranchFrac = 0.9;
    sys.attachSyntheticWorkload(workload);
    sys.run(0.05);

    EXPECT_GT(sys.busLoad(), 0.8);
    const auto first = sys.cpu(0).instructions();
    const auto last = sys.cpu(6).instructions();
    EXPECT_GT(last, 1000u);          // no absolute starvation
    EXPECT_LE(last, first);          // but priority shows
}

TEST(Integration, WholeSystemDeterminism)
{
    auto run = [] {
        FireflySystem sys(FireflyConfig::microVax(5));
        sys.attachSyntheticWorkload(SyntheticConfig{});
        QBus qbus(sys.simulator(), sys.ioCache(),
                  sys.config().ioAddressLimit());
        qbus.identityMap();
        DiskController disk(sys.simulator(), qbus, "disk");
        bool done = false;
        disk.write(123, 4, kIoBuffers, [&](IoStatus) { done = true; });
        sys.run(0.03);
        std::ostringstream os;
        sys.stats().dumpJson(os);
        return os.str();
    };
    EXPECT_EQ(run(), run());
}

TEST(Integration, StatsDumpCoversTheMachine)
{
    FireflySystem sys(FireflyConfig::microVax(2));
    sys.attachSyntheticWorkload(SyntheticConfig{});
    sys.run(0.01);
    std::ostringstream os;
    sys.stats().dumpJson(os);
    const std::string json = os.str();
    for (const std::string group :
         {"cache0", "cache1", "cpu0", "mbus", "mem0"}) {
        EXPECT_NE(json.find("\"name\": \"" + group + "\""),
                  std::string::npos)
            << "missing group " << group;
    }
    for (const std::string stat :
         {"busy_cycles", "miss_rate", "wt_mshared"}) {
        EXPECT_NE(json.find("\"" + stat + "\": "), std::string::npos)
            << "missing " << stat;
    }
}

TEST(Integration, CvaxMachineUsesHighMemory)
{
    // 128 MB machine: processors can use memory beyond the I/O
    // processor's 16 MB window.
    auto cfg = FireflyConfig::cvax(2);
    cfg.memoryBytes = 128 * 1024 * 1024;
    FireflySystem sys(cfg);
    SyntheticConfig workload;
    workload.privateBase = 100 * 1024 * 1024;  // far beyond 16 MB
    workload.codeBase = 96 * 1024 * 1024;
    sys.attachSyntheticWorkload(workload);
    sys.run(0.01);
    EXPECT_GT(sys.cpu(0).instructions(), 1000u);
    EXPECT_GT(sys.cpu(1).instructions(), 1000u);
}

TEST(IntegrationDeathTest, DmaCannotReachHighMemory)
{
    // ...but DMA cannot: "the CPU serving as the I/O processor and
    // the DMA devices can access only the first 16 megabytes."
    auto cfg = FireflyConfig::cvax(1);
    cfg.memoryBytes = 128 * 1024 * 1024;
    FireflySystem sys(cfg);
    EXPECT_EXIT(
        {
            DmaEngine engine(sys.simulator(), sys.ioCache(),
                             sys.config().ioAddressLimit());
            engine.writeWords(32 * 1024 * 1024, {1}, [](IoStatus) {});
        },
        ::testing::ExitedWithCode(1), "I/O processor");
}

TEST(Integration, WorkloadBeyondMemoryIsFatal)
{
    FireflySystem sys(FireflyConfig::microVax(5));
    SyntheticConfig workload;
    workload.privateBytes = 8 * 1024 * 1024;  // 5 CPUs won't fit 16MB
    EXPECT_EXIT(sys.attachSyntheticWorkload(workload),
                ::testing::ExitedWithCode(1), "exceeds memory");
}
