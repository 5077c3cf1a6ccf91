/**
 * @file
 * Experiment X2: coherence protocol comparison (the design space of
 * Section 5.1 and the Archibald & Baer survey the paper cites).
 *
 * Claims to reproduce:
 *  - write-through-invalidate "is not a practical protocol for more
 *    than a few processors, because the substantial write traffic
 *    will rapidly saturate the bus";
 *  - invalidation protocols (Berkeley, MESI) "perform poorly when
 *    actual sharing occurs, since the invalidated information must
 *    be reloaded";
 *  - Firefly/Dragon update protocols keep shared data cheap at the
 *    cost of continued write-throughs/updates.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "firefly/system.hh"

using namespace firefly;

namespace
{

struct Result
{
    double busLoad;
    double tpi;
    double totalPerf;  ///< aggregate instr rate vs one no-wait CPU
    double invalsReceived;
    double busWritesPerKInstr;
};

Result
run(ProtocolKind kind, unsigned cpus, double shared_write_frac,
    bool low_miss = false, double seconds = 0.08)
{
    auto cfg = FireflyConfig::microVax(cpus);
    cfg.protocol = kind;
    FireflySystem sys(bench::checkedConfig(cfg));
    SyntheticConfig workload;
    workload.writeSharedFrac = shared_write_frac;
    workload.readSharedFrac = shared_write_frac / 2;
    // A small, hot shared region: every cache ends up holding most
    // of it, so writes to it really are writes to *shared* lines.
    workload.sharedBytes = 8 * 1024;
    if (low_miss) {
        // A cache-friendly program (the regime where the paper's
        // WTI critique bites hardest: misses are rare, so WTI's
        // per-write bus traffic dominates).
        workload.reuseWindow = 512;
        workload.dataReuseProb = 0.97;
        workload.writeReuseProb = 0.9;
        workload.loopBranchFrac = 0.9995;
    }
    sys.attachSyntheticWorkload(workload);
    sys.run(seconds);
    bench::exportStats(sys.stats());

    double tpi = 0, instrs = 0, invals = 0;
    for (unsigned i = 0; i < cpus; ++i) {
        tpi += sys.cpu(i).tpi();
        instrs += static_cast<double>(sys.cpu(i).instructions());
        invals +=
            static_cast<double>(sys.cache(i).invalidationsReceived.value());
    }
    const double nowait_instrs =
        seconds / (microVaxBaseTpi * 200e-9);
    const double bus_writes = sys.bus().stats().get("writes") +
                              sys.bus().stats().get("invalidates");
    return {sys.busLoad(), tpi / cpus, instrs / nowait_instrs,
            invals / seconds / 1e3, bus_writes / instrs * 1000.0};
}

/** One sweep point: the arguments of run(). */
struct Point
{
    ProtocolKind kind;
    unsigned cpus;
    double sharing;
    bool lowMiss;
};

/** Run every point, --jobs at a time, results in input order. */
std::vector<Result>
sweep(const std::vector<Point> &points)
{
    return bench::runSweep(points, [](const Point &p) {
        return run(p.kind, p.cpus, p.sharing, p.lowMiss);
    });
}

void
experiment()
{
    bench::banner("X2", "Coherence protocol comparison");

    const ProtocolKind kinds[] = {
        ProtocolKind::Firefly, ProtocolKind::Dragon,
        ProtocolKind::Mesi, ProtocolKind::Berkeley,
        ProtocolKind::WriteThroughInvalidate,
    };

    auto perfTable = [&](bool low_miss) {
        std::printf("%-10s", "protocol");
        for (unsigned np : {1u, 2u, 4u, 6u, 8u})
            std::printf("  NP=%-5u", np);
        std::printf("\n");
        bench::rule();
        std::vector<Point> points;
        for (const auto kind : kinds) {
            for (unsigned np : {1u, 2u, 4u, 6u, 8u})
                points.push_back({kind, np, 0.1, low_miss});
        }
        const auto results = sweep(points);
        std::size_t at = 0;
        for (const auto kind : kinds) {
            std::printf("%-10s", toString(kind));
            for (unsigned np : {1u, 2u, 4u, 6u, 8u}) {
                (void)np;
                std::printf("  %-7.2f", results[at++].totalPerf);
            }
            std::printf("\n");
        }
    };

    std::printf("\nTotal performance (aggregate MIPS relative to one "
                "no-wait CPU), S = 0.1:\n\n");
    perfTable(false);
    std::printf("\nTotal performance with a cache-friendly workload "
                "(low miss rate):\n\n");
    perfTable(true);
    std::printf("\n(WTI flattens first: every write is a bus write, "
                "however good the cache. Paper: \"not a practical "
                "protocol for more than a few processors\".)\n");

    std::printf("\nBus load at 6 CPUs vs sharing intensity:\n\n");
    std::printf("%-10s", "protocol");
    for (double s : {0.02, 0.1, 0.3})
        std::printf("  S=%-6.2f", s);
    std::printf("\n");
    bench::rule();
    {
        std::vector<Point> points;
        for (const auto kind : kinds) {
            for (double s : {0.02, 0.1, 0.3})
                points.push_back({kind, 6, s, false});
        }
        const auto results = sweep(points);
        std::size_t at = 0;
        for (const auto kind : kinds) {
            std::printf("%-10s", toString(kind));
            for (double s : {0.02, 0.1, 0.3}) {
                (void)s;
                std::printf("  %-8.2f", results[at++].busLoad);
            }
            std::printf("\n");
        }
    }

    std::printf("\nCoherence costs at 4 CPUs, heavy sharing (S=0.3):\n\n");
    std::printf("%-10s %22s %26s\n", "protocol",
                "invalidations/s (K)", "bus writes+invals /k-instr");
    bench::rule();
    {
        std::vector<Point> points;
        for (const auto kind : kinds)
            points.push_back({kind, 4, 0.3, false});
        const auto results = sweep(points);
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::printf("%-10s %22.1f %26.1f\n",
                        toString(points[i].kind),
                        results[i].invalsReceived,
                        results[i].busWritesPerKInstr);
        }
    }
    std::printf("\n(Invalidation protocols churn copies; update "
                "protocols pay with write-throughs/updates instead - "
                "the trade-off Section 5.1 discusses.)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return firefly::bench::runBenchMain(argc, argv, experiment);
}
