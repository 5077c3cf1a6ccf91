/**
 * @file
 * Experiment F4: regenerate paper Figure 4, "MBus Timing" - the
 * cycle-by-cycle structure of MRead and MWrite operations, plus the
 * resulting 10 MB/s aggregate bandwidth.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "cache/cache.hh"
#include "mbus/mbus.hh"
#include "mem/main_memory.hh"
#include "sim/simulator.hh"

using namespace firefly;

namespace
{

/** Capture one transaction's phase-by-phase trace. */
std::vector<std::string>
traceTransaction(ProtocolKind kind, bool make_shared, bool is_write)
{
    Simulator sim;
    MainMemory memory;
    memory.addModule(4 * 1024 * 1024);
    MBus bus(sim, memory);
    Cache initiator(sim, bus, makeProtocol(kind), {}, "initiator");
    Cache other(sim, bus, makeProtocol(kind), {}, "other");

    const Addr addr = 0x1000;
    auto blocking = [&](Cache &cache, const MemRef &ref) {
        bool done = false;
        auto result = cache.cpuAccess(ref, [&](Word) { done = true; });
        if (result.outcome == Cache::AccessOutcome::Hit)
            return;
        while (!done)
            sim.run(1);
    };

    if (make_shared) {
        blocking(other, {addr, RefType::DataRead, 0});
        blocking(initiator, {addr, RefType::DataRead, 0});
    }

    std::vector<std::string> lines;
    bus.setTraceHook([&](Cycle now, const std::string &phase,
                         const std::string &detail) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "  cycle %2llu (%3llu ns)  %-12s %s",
                      static_cast<unsigned long long>(now),
                      static_cast<unsigned long long>(now * 100),
                      phase.c_str(), detail.c_str());
        lines.emplace_back(buf);
    });

    blocking(initiator,
             {addr, is_write ? RefType::DataWrite : RefType::DataRead,
              0xbeef});
    bench::exportStats(bus.stats());
    return lines;
}

void
experiment()
{
    bench::banner("Figure 4", "MBus timing (four 100 ns cycles per op)");

    std::printf("\nMRead, no other cache holds the line:\n");
    for (const auto &line :
         traceTransaction(ProtocolKind::Firefly, false, false))
        std::printf("%s\n", line.c_str());

    std::printf("\nMRead, another cache holds the line (MShared, "
                "memory inhibited):\n");
    {
        // Make the other cache the only holder: trace a fresh read.
        Simulator sim;
        MainMemory memory;
        memory.addModule(4 * 1024 * 1024);
        MBus bus(sim, memory);
        Cache a(sim, bus, makeProtocol(ProtocolKind::Firefly), {}, "a");
        Cache b(sim, bus, makeProtocol(ProtocolKind::Firefly), {}, "b");
        bool done = false;
        b.cpuAccess({0x1000, RefType::DataRead, 0},
                    [&](Word) { done = true; });
        while (!done)
            sim.run(1);
        bus.setTraceHook([&](Cycle now, const std::string &phase,
                             const std::string &detail) {
            std::printf("  cycle %2llu (%3llu ns)  %-12s %s\n",
                        static_cast<unsigned long long>(now),
                        static_cast<unsigned long long>(now * 100),
                        phase.c_str(), detail.c_str());
        });
        done = false;
        a.cpuAccess({0x1000, RefType::DataRead, 0},
                    [&](Word) { done = true; });
        while (!done)
            sim.run(1);
    }

    std::printf("\nMWrite (conditional write-through to a shared "
                "line):\n");
    for (const auto &line :
         traceTransaction(ProtocolKind::Firefly, true, true))
        std::printf("%s\n", line.c_str());

    // Bandwidth: saturate the bus for a millisecond.
    bench::rule();
    {
        Simulator sim;
        MainMemory memory;
        memory.addModule(4 * 1024 * 1024);
        MBus bus(sim, memory);

        struct Hammer : MBusClient, Clocked
        {
            MBus *bus;
            std::uint64_t done = 0;
            std::string busClientName() const override { return "h"; }
            SnoopReply snoopProbe(const MBusTransaction &) override
            {
                return {};
            }
            void transactionDone(const MBusTransaction &) override
            {
                ++done;
            }
            void
            tick(Cycle) override
            {
                if (!bus->busy(this)) {
                    MBusTransaction txn;
                    txn.type = MBusOpType::MRead;
                    txn.addr = 0x100;
                    txn.initiator = this;
                    bus->request(txn);
                }
            }
        } hammer;
        hammer.bus = &bus;
        bus.attach(&hammer);
        sim.addClocked(&hammer, Phase::Cpu);
        sim.run(10000);  // 1 ms
        const double mb_per_s =
            hammer.done * 4.0 / sim.seconds() / 1e6;
        std::printf("Saturated bus: %llu transfers in %.3f ms -> "
                    "%.2f MB/s  (paper: \"one four-byte transfer "
                    "every 400 ns ... 10 megabytes per second\")\n",
                    static_cast<unsigned long long>(hammer.done),
                    sim.seconds() * 1e3, mb_per_s);
        std::printf("Bus load: %.3f\n", bus.load());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return firefly::bench::runBenchMain(argc, argv, experiment);
}
