/**
 * @file
 * Unit tests for the MBus: Figure 4 timing, arbitration, MShared,
 * memory inhibit, bandwidth.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_injector.hh"
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

/** Keeps every flight-recorder event. */
struct EventLog : obs::TraceSink
{
    std::vector<obs::TraceEvent> events;

    void event(const obs::TraceEvent &ev) override { events.push_back(ev); }

    /** The MBus slice begins or ends, in order. */
    std::vector<obs::TraceEvent>
    slices(obs::EventKind kind) const
    {
        std::vector<obs::TraceEvent> out;
        for (const auto &ev : events) {
            if (ev.kind == kind)
                out.push_back(ev);
        }
        return out;
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
    // Each transaction is one slice; MBusPhaseLog renders it as the
    // lines Figure 4 prints, one per bus cycle.
    MBusPhaseLog log;
    obs::ScopedTraceSink attach(&log);
    BusRig rig;
    rig.bus.request(rig.makeRead(rig.a, 0x100));
    rig.sim.run(4);
    const std::vector<MBusPhase> expected = {
        {0, "arb+addr", "MRead 0x100 (fill) by a"},
        {1, "wdata+probe", "tag probe"},
        {2, "mshared", "MShared clear"},
        {3, "data", "memory drives/captures"}};
    EXPECT_EQ(log.phases, expected);
}

TEST(MBus, BurstRendersOneDataLinePerWord)
{
    // The line-size ablation's 4-word burst: data at grant+3..grant+6.
    EventLog events;
    obs::ScopedTraceSink record(&events);
    MBusPhaseLog log;
    obs::ScopedTraceSink attach(&log);
    BusRig rig;
    rig.b.assertShared = rig.b.supply = true;
    MBusTransaction txn = rig.makeRead(rig.a, 0x100);
    txn.words = 4;
    rig.bus.request(txn);
    rig.sim.run(7);
    EXPECT_EQ(rig.a.doneCycle, 6u);

    const std::vector<MBusPhase> expected = {
        {0, "arb+addr", "MRead 0x100 (fill) by a"},
        {1, "wdata+probe", "tag probe"},
        {2, "mshared", "MShared asserted"},
        {3, "data", "cache supplies, memory inhibited"},
        {4, "data", "cache supplies, memory inhibited"},
        {5, "data", "cache supplies, memory inhibited"},
        {6, "data", "cache supplies, memory inhibited"}};
    EXPECT_EQ(log.phases, expected);
    const auto begins = events.slices(obs::EventKind::Begin);
    ASSERT_EQ(begins.size(), 1u);
    EXPECT_EQ(begins[0].arg("words"), "4");
    EXPECT_EQ(begins[0].arg("wait"), "0");
    const auto ends = events.slices(obs::EventKind::End);
    ASSERT_EQ(ends.size(), 1u);
    EXPECT_EQ(ends[0].when, 6u);
    EXPECT_EQ(ends[0].arg("mshared"), "1");
    EXPECT_EQ(ends[0].arg("supplied"), "1");
}

TEST(MBus, ParityNackedAttemptIsNoTransaction)
{
    // A plan whose first parity draw fires and whose second does not:
    // the first attempt is NACKed, the retry completes.
    fault::FaultConfig cfg;
    cfg.rates.busParity = 0.5;
    for (;; ++cfg.seed) {
        fault::FaultPlan plan(cfg.seed, cfg.rates);
        if (plan.busParityError() && !plan.busParityError())
            break;
    }
    fault::FaultInjector injector(cfg);

    EventLog events;
    obs::ScopedTraceSink record(&events);
    MBusPhaseLog log;
    obs::ScopedTraceSink attach(&log);
    BusRig rig;
    rig.bus.setFaultInjector(&injector);
    rig.bus.request(rig.makeRead(rig.a, 0x100));
    rig.sim.run(20);
    ASSERT_EQ(rig.a.doneCount, 1);
    EXPECT_EQ(injector.parityErrors.value(), 1u);

    // The NACKed attempt ends its slice with no args, and the Fault
    // category's parity-nack follows; its retry is a slice of its own.
    const auto begins = events.slices(obs::EventKind::Begin);
    const auto ends = events.slices(obs::EventKind::End);
    ASSERT_EQ(begins.size(), 2u);
    ASSERT_EQ(ends.size(), 2u);
    EXPECT_EQ(ends[0].when, 3u);
    EXPECT_TRUE(ends[0].args.empty());
    const auto nacked_end =
        std::find_if(events.events.begin(), events.events.end(),
                     [](const obs::TraceEvent &ev) {
                         return ev.kind == obs::EventKind::End;
                     });
    ASSERT_NE(std::next(nacked_end), events.events.end());
    EXPECT_EQ(std::next(nacked_end)->name, "parity-nack");
    EXPECT_EQ(std::next(nacked_end)->when, 3u);
    EXPECT_EQ(std::next(nacked_end)->arg("attempt"), "1");

    // Only the retry renders, at its own grant cycle.
    const Cycle grant = begins[1].when;
    EXPECT_GT(grant, 3u);
    EXPECT_EQ(ends[1].when, grant + 3);
    ASSERT_EQ(log.phases.size(), 4u);
    EXPECT_EQ(log.phases[0].when, grant);
    EXPECT_EQ(log.phases[0].name, "arb+addr");
    EXPECT_EQ(log.phases[3].when, grant + 3);
    EXPECT_EQ(log.phases[3].name, "data");
}

