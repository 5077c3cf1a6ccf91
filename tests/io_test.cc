/**
 * @file
 * I/O subsystem tests: DMA through the I/O processor's cache, QBus
 * mapping, Ethernet, and the disk controller.
 */

#include <gtest/gtest.h>

#include "check/rig.hh"
#include "io/disk.hh"
#include "io/ethernet.hh"
#include "io/qbus.hh"
#include "obs/trace.hh"

using namespace firefly;
using firefly::check::Rig;
using firefly::check::rigConfig;

namespace
{

constexpr Addr kIoLimit = 16 * 1024 * 1024;

struct IoRig : Rig
{
    QBus qbus;

    IoRig()
        : Rig(rigConfig(ProtocolKind::Firefly, 2)),
          qbus(sim, *caches[0], kIoLimit)
    {
        qbus.identityMap();
    }

    void
    runUntil(const bool &flag, Cycle limit = 10'000'000)
    {
        const Cycle deadline = sim.now() + limit;
        while (!flag && sim.now() < deadline)
            sim.run(100);
        ASSERT_TRUE(flag) << "I/O operation did not complete";
    }
};

/** Keeps the events of one trace track. */
struct TrackLog : obs::TraceSink
{
    std::string track;
    std::vector<obs::TraceEvent> events;

    explicit TrackLog(std::string name) : track(std::move(name)) {}

    void
    event(const obs::TraceEvent &ev) override
    {
        if (ev.track == track)
            events.push_back(ev);
    }
};

} // namespace

TEST(DmaEngine, ReadSeesMemoryAndCaches)
{
    IoRig rig;
    rig.memory.write(0x1000, 7);
    // A dirty word in another CPU's cache must be visible to DMA.
    rig.write(1, 0x1004, 8);
    rig.write(1, 0x1004, 9);  // now dirty in cache 1

    bool done = false;
    std::vector<Word> got;
    rig.qbus.dmaRead(0x1000, 2, [&](IoStatus, std::vector<Word> data) {
        got = std::move(data);
        done = true;
    });
    rig.runUntil(done);
    EXPECT_EQ(got, (std::vector<Word>{7, 9}));
}

// A request is one slice on the engine's track: it begins at the
// first word and ends when the last word completes.
TEST(DmaEngine, RequestIsOneClosedSliceOnItsTrack)
{
    Rig rig(rigConfig(ProtocolKind::Firefly));
    TrackLog log("dma");
    Cycle completed = 0;
    {
        obs::ScopedTraceSink scoped(&log);
        bool done = false;
        rig.dma.readWords(0x1000, 3, [&](IoStatus, std::vector<Word>) {
            done = true;
            completed = rig.sim.now();
        });
        while (!done)
            rig.sim.run(1);
    }
    ASSERT_EQ(log.events.size(), 2u);
    EXPECT_EQ(log.events[0].kind, obs::EventKind::Begin);
    EXPECT_EQ(log.events[0].name, "dma-read");
    EXPECT_EQ(log.events[0].arg("words"), "3");
    EXPECT_EQ(log.events[1].kind, obs::EventKind::End);
    EXPECT_EQ(log.events[1].when, completed);
}

TEST(DmaEngine, WriteIsVisibleToCpus)
{
    IoRig rig;
    rig.read(1, 0x2000);  // cache 1 holds the line
    bool done = false;
    rig.qbus.dmaWrite(0x2000, {1234}, [&](IoStatus) { done = true; });
    rig.runUntil(done);
    EXPECT_EQ(rig.memory.read(0x2000), 1234u);
    EXPECT_EQ(rig.read(1, 0x2000), 1234u);  // updated in place
}

TEST(DmaEngine, PacingLimitsBandwidth)
{
    IoRig rig;
    // 1000 words at 12 cycles/word ~ 12000 cycles = 3.33 MB/s.
    bool done = false;
    const Cycle start = rig.sim.now();
    rig.qbus.dmaWrite(0x4000, std::vector<Word>(1000, 42),
                      [&](IoStatus) { done = true; });
    rig.runUntil(done);
    const Cycle elapsed = rig.sim.now() - start;
    EXPECT_GE(elapsed, 11900u);
    EXPECT_LE(elapsed, 13500u);
    const double mbps = 4000.0 / (elapsed * 100e-9) / 1e6;
    EXPECT_NEAR(mbps, 3.33, 0.2);
}

TEST(DmaEngine, ConcurrentRequestsShareFifo)
{
    IoRig rig;
    bool a = false, b = false;
    rig.qbus.dmaWrite(0x5000, std::vector<Word>(10, 1),
                      [&](IoStatus) { a = true; });
    rig.qbus.dmaWrite(0x6000, std::vector<Word>(10, 2),
                      [&](IoStatus) { b = true; });
    rig.runUntil(b);
    EXPECT_TRUE(a);
    EXPECT_EQ(rig.memory.read(0x5000), 1u);
    EXPECT_EQ(rig.memory.read(0x6000), 2u);
}

TEST(DmaEngineDeathTest, RejectsAccessBeyondIoLimit)
{
    IoRig rig;
    // The I/O processor and DMA reach only the first 16 MB; a
    // mapping cannot be programmed to point beyond it.
    EXPECT_EXIT(rig.qbus.engine().writeWords(
                    kIoLimit, {1}, [](IoStatus) {}),
                ::testing::ExitedWithCode(1), "I/O processor");
}

TEST(QBus, MappingTranslates)
{
    IoRig rig;
    rig.qbus.setMapping(0, 3 * qbusPageBytes);
    EXPECT_EQ(rig.qbus.translate(0x10), 3 * qbusPageBytes + 0x10);
}

TEST(QBusDeathTest, UnmappedPageIsFatal)
{
    Rig base(rigConfig(ProtocolKind::Firefly, 1));
    QBus qbus(base.sim, *base.caches[0], kIoLimit);
    EXPECT_EXIT(qbus.translate(0x10), ::testing::ExitedWithCode(1),
                "unmapped");
}

TEST(QBusDeathTest, AddressBeyond22BitsIsFatal)
{
    IoRig rig;
    EXPECT_EXIT(rig.qbus.translate(qbusSpaceBytes),
                ::testing::ExitedWithCode(1), "22-bit");
}

TEST(Ethernet, LoopbackDeliversPayload)
{
    IoRig rig;
    EthernetController a(rig.sim, rig.qbus, "net0");
    EthernetController b(rig.sim, rig.qbus, "net1");
    a.connectTo(&b);

    // Place a packet in memory, post an rx buffer for b.
    for (unsigned i = 0; i < 16; ++i)
        rig.memory.write(0x8000 + 4 * i, 0xab00 + i);
    b.addReceiveBuffer(0x9000, 256);

    bool received = false;
    b.setReceiveHandler([&](Addr addr, unsigned bytes) {
        EXPECT_EQ(addr, 0x9000u);
        EXPECT_EQ(bytes, 64u);
        received = true;
    });
    bool sent = false;
    a.transmit(0x8000, 64, [&](IoStatus) { sent = true; });
    rig.runUntil(received);
    EXPECT_TRUE(sent);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(rig.memory.read(0x9000 + 4 * i), 0xab00 + i);
    EXPECT_EQ(a.txPackets.value(), 1u);
    EXPECT_EQ(b.rxPackets.value(), 1u);
}

TEST(Ethernet, WireRateBoundsThroughput)
{
    IoRig rig;
    EthernetController a(rig.sim, rig.qbus, "net0");
    // 10 packets of 1500 bytes at 10 Mbit/s ~ 12 ms minimum.
    int sent = 0;
    for (int i = 0; i < 10; ++i)
        a.transmit(0x8000, 1500, [&](IoStatus) { ++sent; });
    const Cycle start = rig.sim.now();
    while (sent < 10)
        rig.sim.run(1000);
    const double seconds = (rig.sim.now() - start) * 100e-9;
    const double mbps = 10 * 1500 * 8 / seconds / 1e6;
    EXPECT_LE(mbps, 10.0);
    EXPECT_GT(mbps, 6.0);  // DMA adds overhead but not 2x
}

TEST(Ethernet, DropsWithoutReceiveBuffer)
{
    IoRig rig;
    EthernetController a(rig.sim, rig.qbus, "net0");
    EthernetController b(rig.sim, rig.qbus, "net1");
    a.connectTo(&b);
    bool sent = false;
    a.transmit(0x8000, 64, [&](IoStatus) { sent = true; });
    rig.runUntil(sent);
    rig.sim.run(10000);
    EXPECT_EQ(b.rxDropped.value(), 1u);
    EXPECT_EQ(b.rxPackets.value(), 0u);
}

TEST(Disk, WriteThenReadRoundTrips)
{
    IoRig rig;
    DiskController disk(rig.sim, rig.qbus, "disk");

    // Prepare a buffer in memory, write it to sector 100.
    for (unsigned i = 0; i < 128; ++i)
        rig.memory.write(0xa000 + 4 * i, 0x1000 + i);
    bool wrote = false;
    disk.write(100, 1, 0xa000, [&](IoStatus) { wrote = true; });
    rig.runUntil(wrote);
    EXPECT_EQ(disk.peekWord(100, 5), 0x1005u);

    // Read it back into a different buffer.
    bool read_done = false;
    disk.read(100, 1, 0xb000, [&](IoStatus) { read_done = true; });
    rig.runUntil(read_done);
    for (unsigned i = 0; i < 128; ++i)
        EXPECT_EQ(rig.memory.read(0xb000 + 4 * i), 0x1000 + i);
}

TEST(Disk, SeeksCostTime)
{
    IoRig rig;
    DiskController disk(rig.sim, rig.qbus, "disk");

    bool done = false;
    disk.read(0, 1, 0xa000, [&](IoStatus) { done = true; });
    rig.runUntil(done);
    const Cycle near_time = rig.sim.now();

    done = false;
    // Far cylinder: geometry-maximal seek.
    disk.read((DiskController::cylinders - 1) * DiskController::heads *
                  DiskController::sectorsPerTrack,
              1, 0xa000, [&](IoStatus) { done = true; });
    rig.runUntil(done);
    const Cycle far_elapsed = rig.sim.now() - near_time;

    // A full-stroke seek (4 + 0.03*1023 ~ 35 ms) dominates.
    EXPECT_GT(far_elapsed, 300'000u);  // > 30 ms
}

TEST(Disk, QueuedRequestsAllComplete)
{
    IoRig rig;
    DiskController disk(rig.sim, rig.qbus, "disk");
    int completed = 0;
    for (unsigned i = 0; i < 8; ++i)
        disk.write(i * 50, 1, 0xa000, [&](IoStatus) { ++completed; });
    const Cycle deadline = rig.sim.now() + 50'000'000;
    while (completed < 8 && rig.sim.now() < deadline)
        rig.sim.run(10000);
    EXPECT_EQ(completed, 8);
    EXPECT_EQ(disk.writes.value(), 8u);
    EXPECT_EQ(disk.sectorsMoved.value(), 8u);
}

TEST(Disk, DmaTrafficFlowsThroughIoCache)
{
    IoRig rig;
    DiskController disk(rig.sim, rig.qbus, "disk");
    const auto dma_before = rig.caches[0]->dmaReads.value() +
                            rig.caches[0]->dmaWrites.value();
    bool done = false;
    disk.read(10, 2, 0xa000, [&](IoStatus) { done = true; });
    rig.runUntil(done);
    const auto dma_after = rig.caches[0]->dmaReads.value() +
                           rig.caches[0]->dmaWrites.value();
    EXPECT_GE(dma_after - dma_before, 256u);  // 2 sectors of words
}
