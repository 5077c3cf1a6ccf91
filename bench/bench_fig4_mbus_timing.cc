/**
 * @file
 * Experiment F4: regenerate paper Figure 4, "MBus Timing" - the
 * cycle-by-cycle structure of MRead and MWrite operations, plus the
 * resulting 10 MB/s aggregate bandwidth.  The timing lines are the
 * bus's flight-recorder phase instants (mbus/mbus.hh), and the run
 * fails unless they match the figure.  The traced operations run
 * under the coherence checker, which aborts on any violation.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "check/rig.hh"
#include "obs/trace.hh"

using namespace firefly;

namespace
{

/** Checks that disagreed with the paper's figure. */
int failures = 0;

/** Keeps the MBus phase instants and forwards every event to the
 *  sink attached before it, so --trace-out and --debug-flags still
 *  see the traced operations. */
struct PhaseLog : obs::TraceSink
{
    obs::TraceSink *next = obs::traceSink();
    std::vector<obs::TraceEvent> phases;

    void
    event(const obs::TraceEvent &ev) override
    {
        if (ev.kind == obs::EventKind::Instant && !ev.args.empty() &&
            ev.args[0].first == "detail")
            phases.push_back(ev);
        if (next)
            next->event(ev);
    }
};

/** Two Firefly caches on one bus, under the checker: `a` is cache 0,
 *  the one traced. */
struct Rig : check::CheckedRig
{
    Rig(const char *a_name, const char *b_name)
        : CheckedRig(ProtocolKind::Firefly, {a_name, b_name})
    {
    }

    void
    access(unsigned cache, RefType type)
    {
        CheckedRig::access(cache, {0x1000, type, 0xbeef});
    }

    /** Print the phases of one access by cache `a`, and check that
     *  they are Figure 4's four, on consecutive cycles. */
    std::vector<obs::TraceEvent>
    trace(const char *title, RefType type)
    {
        PhaseLog log;
        {
            obs::ScopedTraceSink attach(&log);
            access(0, type);
        }
        checker.finalCheck();
        bench::exportStats(bus.stats());

        static const char *const order[] = {"arb+addr", "wdata+probe",
                                            "mshared", "data"};
        failures += log.phases.size() != 4;
        std::printf("\n%s:\n", title);
        for (std::size_t i = 0; i < log.phases.size(); ++i) {
            const obs::TraceEvent &p = log.phases[i];
            std::printf("  cycle %2llu (%3llu ns)  %-12s %s\n",
                        static_cast<unsigned long long>(p.when),
                        static_cast<unsigned long long>(p.when * 100),
                        p.name.c_str(), p.args[0].second.c_str());
            failures += i < 4 && (p.name != order[i] ||
                                  p.when != log.phases[0].when + i);
        }
        return log.phases;
    }
};

void
experiment()
{
    bench::banner("Figure 4", "MBus timing (four 100 ns cycles per op)");

    Rig("initiator", "other")
        .trace("MRead, no other cache holds the line", RefType::DataRead);
    {
        // Make the other cache the only holder: trace a fresh read.
        Rig rig("a", "b");
        rig.access(1, RefType::DataRead);
        const auto phases =
            rig.trace("MRead, another cache holds the line (MShared, "
                      "memory inhibited)",
                      RefType::DataRead);
        failures += phases.size() != 4 ||
                    phases[2].args[0].second != "MShared asserted" ||
                    phases[3].args[0].second !=
                        "cache supplies, memory inhibited";
    }
    {
        Rig rig("initiator", "other");
        rig.access(1, RefType::DataRead);
        rig.access(0, RefType::DataRead);
        rig.trace("MWrite (conditional write-through to a shared line)",
                  RefType::DataWrite);
    }

    // Bandwidth: saturate the bus for a millisecond.
    bench::rule();
    {
        check::Rig rig(ProtocolKind::Firefly, 0);

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
        hammer.bus = &rig.bus;
        rig.bus.attach(&hammer);
        rig.sim.addClocked(&hammer, Phase::Cpu);
        rig.sim.run(10000);  // 1 ms
        const double mb_per_s =
            hammer.done * 4.0 / rig.sim.seconds() / 1e6;
        char rate[32];
        std::snprintf(rate, sizeof(rate), "%.2f", mb_per_s);
        std::printf("Saturated bus: %llu transfers in %.3f ms -> "
                    "%s MB/s  (paper: \"one four-byte transfer "
                    "every 400 ns ... 10 megabytes per second\")\n",
                    static_cast<unsigned long long>(hammer.done),
                    rig.sim.seconds() * 1e3, rate);
        failures += std::string(rate) != "10.00";
        std::printf("Bus load: %.3f\n", rig.bus.load());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const int status = firefly::bench::runBenchMain(argc, argv, experiment);
    if (status == 0 && failures != 0)
        std::fprintf(stderr, "%d checks disagree with Figure 4\n", failures);
    return status != 0 ? status : (failures != 0 ? 1 : 0);
}
