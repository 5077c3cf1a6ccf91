/**
 * @file
 * Unit tests for the MBus: Figure 4 timing, arbitration, MShared,
 * memory inhibit, bandwidth.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mbus/interrupts.hh"
#include "mbus/mbus.hh"
#include "mem/main_memory.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"

using namespace firefly;

namespace
{

/** Scriptable bus agent for exercising the bus without real caches. */
struct FakeClient : MBusClient
{
    std::string name = "fake";
    bool assertShared = false;
    bool supply = false;
    Word supplyValue = 0;

    int probes = 0;
    int completions = 0;
    int doneCount = 0;
    MBusTransaction lastDone;
    Cycle doneCycle = 0;
    Simulator *sim = nullptr;

    std::string busClientName() const override { return name; }

    SnoopReply
    snoopProbe(const MBusTransaction &) override
    {
        ++probes;
        return {assertShared, supply};
    }

    void
    snoopSupplyData(const MBusTransaction &txn, Word *out) override
    {
        for (unsigned i = 0; i < txn.words; ++i)
            out[i] = supplyValue + i;
    }

    void
    snoopComplete(const MBusTransaction &) override
    {
        ++completions;
    }

    void
    transactionDone(const MBusTransaction &txn) override
    {
        ++doneCount;
        lastDone = txn;
        if (sim)
            doneCycle = sim->now();
    }
};

struct BusRig
{
    Simulator sim;
    MainMemory memory;
    MBus bus;
    FakeClient a, b, c;

    BusRig() : bus(sim, memory)
    {
        memory.addModule(4 * 1024 * 1024);
        a.name = "a";
        b.name = "b";
        c.name = "c";
        a.sim = b.sim = c.sim = &sim;
        bus.attach(&a);
        bus.attach(&b);
        bus.attach(&c);
    }

    MBusTransaction
    makeRead(FakeClient &who, Addr addr)
    {
        MBusTransaction txn;
        txn.type = MBusOpType::MRead;
        txn.kind = MBusOpKind::Fill;
        txn.addr = addr;
        txn.initiator = &who;
        return txn;
    }

    MBusTransaction
    makeWrite(FakeClient &who, Addr addr, Word value)
    {
        MBusTransaction txn;
        txn.type = MBusOpType::MWrite;
        txn.kind = MBusOpKind::WriteThrough;
        txn.addr = addr;
        txn.data[0] = value;
        txn.initiator = &who;
        return txn;
    }
};

} // namespace

TEST(MBus, ReadTakesFourCycles)
{
    BusRig rig;
    rig.memory.write(0x100, 77);
    rig.bus.request(rig.makeRead(rig.a, 0x100));
    rig.sim.run(3);
    EXPECT_EQ(rig.a.doneCount, 0);  // not yet: data cycle is cycle 3
    rig.sim.run(1);
    EXPECT_EQ(rig.a.doneCount, 1);
    EXPECT_EQ(rig.a.lastDone.data[0], 77u);
    EXPECT_EQ(rig.a.doneCycle, 3u);
}

TEST(MBus, WriteUpdatesMemory)
{
    BusRig rig;
    rig.bus.request(rig.makeWrite(rig.a, 0x200, 1234));
    rig.sim.run(4);
    EXPECT_EQ(rig.memory.read(0x200), 1234u);
    EXPECT_EQ(rig.a.doneCount, 1);
}

TEST(MBus, UpdateWriteSkipsMemory)
{
    BusRig rig;
    auto txn = rig.makeWrite(rig.a, 0x200, 1234);
    txn.kind = MBusOpKind::Update;
    txn.updatesMemory = false;
    rig.bus.request(txn);
    rig.sim.run(4);
    EXPECT_EQ(rig.memory.read(0x200), 0u);  // memory not updated
    EXPECT_EQ(rig.a.doneCount, 1);
}

TEST(MBus, OnlyNonInitiatorsAreProbed)
{
    BusRig rig;
    rig.bus.request(rig.makeRead(rig.b, 0x100));
    rig.sim.run(4);
    EXPECT_EQ(rig.a.probes, 1);
    EXPECT_EQ(rig.b.probes, 0);
    EXPECT_EQ(rig.c.probes, 1);
    EXPECT_EQ(rig.a.completions, 1);
    EXPECT_EQ(rig.b.completions, 0);
}

TEST(MBus, MSharedWiredOr)
{
    BusRig rig;
    rig.c.assertShared = true;
    rig.bus.request(rig.makeRead(rig.a, 0x100));
    rig.sim.run(4);
    EXPECT_TRUE(rig.a.lastDone.mshared);

    rig.c.assertShared = false;
    rig.bus.request(rig.makeRead(rig.a, 0x104));
    rig.sim.run(4);
    EXPECT_FALSE(rig.a.lastDone.mshared);
}

TEST(MBus, CacheSupplyInhibitsMemory)
{
    BusRig rig;
    rig.memory.write(0x100, 111);   // stale value in memory
    rig.b.assertShared = true;
    rig.b.supply = true;
    rig.b.supplyValue = 222;
    rig.bus.request(rig.makeRead(rig.a, 0x100));
    rig.sim.run(4);
    EXPECT_TRUE(rig.a.lastDone.suppliedByCache);
    EXPECT_EQ(rig.a.lastDone.data[0], 222u);
    // updatesMemory defaults true: memory captured the supply.
    EXPECT_EQ(rig.memory.read(0x100), 222u);
}

TEST(MBus, SupplyWithoutCaptureLeavesMemoryStale)
{
    BusRig rig;
    rig.memory.write(0x100, 111);
    rig.b.assertShared = true;
    rig.b.supply = true;
    rig.b.supplyValue = 222;
    auto txn = rig.makeRead(rig.a, 0x100);
    txn.updatesMemory = false;  // Berkeley/Dragon style fill
    rig.bus.request(txn);
    rig.sim.run(4);
    EXPECT_EQ(rig.a.lastDone.data[0], 222u);
    EXPECT_EQ(rig.memory.read(0x100), 111u);
}

TEST(MBusDeathTest, DisagreeingSuppliersPanic)
{
    BusRig rig;
    rig.b.assertShared = rig.b.supply = true;
    rig.b.supplyValue = 1;
    rig.c.assertShared = rig.c.supply = true;
    rig.c.supplyValue = 2;
    rig.bus.request(rig.makeRead(rig.a, 0x100));
    EXPECT_DEATH(rig.sim.run(4), "disagree");
}

TEST(MBus, FixedPriorityArbitration)
{
    BusRig rig;
    // b and c request in the same cycle; b attached earlier -> wins.
    rig.bus.request(rig.makeRead(rig.c, 0x300));
    rig.bus.request(rig.makeRead(rig.b, 0x200));
    rig.sim.run(4);
    EXPECT_EQ(rig.b.doneCount, 1);
    EXPECT_EQ(rig.c.doneCount, 0);
    rig.sim.run(4);
    EXPECT_EQ(rig.c.doneCount, 1);
}

TEST(MBus, BackToBackThroughputIsTenMegabytesPerSecond)
{
    BusRig rig;
    // Keep the bus saturated with single-word reads for 4000 cycles
    // (400 us): peak throughput must be one longword per 400 ns.
    int issued = 0;
    struct Issuer : Clocked
    {
        BusRig *rig;
        int *issued;
        Issuer(BusRig *r, int *n) : rig(r), issued(n) {}
        void
        tick(Cycle) override
        {
            if (!rig->bus.busy(&rig->a)) {
                rig->bus.request(rig->makeRead(rig->a, 0x100));
                ++*issued;
            }
        }
    } issuer(&rig, &issued);
    rig.sim.addClocked(&issuer, Phase::Cpu);
    rig.sim.run(4000);
    // 4000 cycles / 4 cycles per op ~ 1000 ops of 4 bytes = 4000 bytes
    // in 400 us -> 10 MB/s (one op of slack for startup alignment).
    EXPECT_GE(rig.a.doneCount, 999);
    EXPECT_LE(rig.a.doneCount, 1000);
    EXPECT_GE(rig.bus.load(), 0.999);
    const double bytes = rig.a.doneCount * 4.0;
    const double seconds = rig.sim.seconds();
    EXPECT_NEAR(bytes / seconds, 10e6, 0.02e6);
}

TEST(MBus, BurstAddsOneCyclePerExtraWord)
{
    BusRig rig;
    for (unsigned w = 0; w < 4; ++w)
        rig.memory.write(0x100 + 4 * w, 100 + w);
    auto txn = rig.makeRead(rig.a, 0x100);
    txn.words = 4;
    rig.bus.request(txn);
    rig.sim.run(7);  // 4 + 3 extra data cycles
    EXPECT_EQ(rig.a.doneCount, 1);
    EXPECT_EQ(rig.a.doneCycle, 6u);
    for (unsigned w = 0; w < 4; ++w)
        EXPECT_EQ(rig.a.lastDone.data[w], 100 + w);
}

TEST(MBus, LoadAccountsIdleCycles)
{
    BusRig rig;
    rig.bus.request(rig.makeRead(rig.a, 0x100));
    rig.sim.run(16);  // 4 busy + 12 idle
    EXPECT_NEAR(rig.bus.load(), 0.25, 1e-9);
}

TEST(MBus, StatsCountOpsByTypeAndKind)
{
    BusRig rig;
    rig.bus.request(rig.makeRead(rig.a, 0x100));
    rig.sim.run(4);
    rig.bus.request(rig.makeWrite(rig.b, 0x200, 5));
    rig.sim.run(4);
    EXPECT_EQ(rig.bus.stats().get("reads"), 1.0);
    EXPECT_EQ(rig.bus.stats().get("writes"), 1.0);
    EXPECT_EQ(rig.bus.stats().get("fills"), 1.0);
    EXPECT_EQ(rig.bus.stats().get("write_throughs"), 1.0);
}

TEST(MBusDeathTest, DoubleRequestPanics)
{
    BusRig rig;
    rig.bus.request(rig.makeRead(rig.a, 0x100));
    EXPECT_DEATH(rig.bus.request(rig.makeRead(rig.a, 0x104)),
                 "outstanding");
}

TEST(MBus, FlightRecorderSeesFourPhases)
{
    // Each cycle of a transaction is one MBus phase instant whose
    // "detail" arg is the text Figure 4 prints.
    struct PhaseLog : obs::TraceSink
    {
        std::vector<std::pair<Cycle, std::string>> phases;
        void
        event(const obs::TraceEvent &ev) override
        {
            if (ev.kind == obs::EventKind::Instant &&
                ev.args.size() == 1 && ev.args[0].first == "detail")
                phases.emplace_back(ev.when, ev.name);
        }
    } log;
    obs::ScopedTraceSink attach(&log);
    BusRig rig;
    rig.bus.request(rig.makeRead(rig.a, 0x100));
    rig.sim.run(4);
    const std::vector<std::pair<Cycle, std::string>> expected = {
        {0, "arb+addr"}, {1, "wdata+probe"}, {2, "mshared"}, {3, "data"}};
    EXPECT_EQ(log.phases, expected);
}

TEST(Interrupts, DirectedDelivery)
{
    Simulator sim;
    InterruptController ic(sim);
    std::vector<std::pair<unsigned, unsigned>> delivered;
    const unsigned t0 = ic.addTarget(
        [&](unsigned src) { delivered.emplace_back(0, src); });
    ic.addTarget([&](unsigned src) { delivered.emplace_back(1, src); });
    ic.raise(t0, 1);
    sim.run(2);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0], (std::pair<unsigned, unsigned>{0u, 1u}));
}

TEST(Interrupts, BroadcastSkipsSource)
{
    Simulator sim;
    InterruptController ic(sim);
    std::vector<unsigned> hit;
    for (unsigned i = 0; i < 3; ++i)
        ic.addTarget([&hit, i](unsigned) { hit.push_back(i); });
    ic.broadcast(1);
    sim.run(2);
    EXPECT_EQ(hit, (std::vector<unsigned>{0, 2}));
}
