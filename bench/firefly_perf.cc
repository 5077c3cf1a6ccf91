/**
 * X-PERF: host throughput of the simulator itself.
 *
 * Every other bench regenerates a number from the paper; this one
 * measures the tool.  The sweep harness (X-JOBS), the fuzzer (X-FUZZ)
 * and the fault campaigns (X-FAULT) all burn simulated cycles by the
 * hundreds of millions, so simulated-cycles-per-host-second is the
 * binding constraint on every experiment grid.  This bench pins that
 * number down across protocols x CPU counts x workloads and writes a
 * machine-readable BENCH_perf.json so regressions show up in review
 * instead of in someone's overnight sweep.
 *
 * Two workloads bracket the space:
 *
 *   saturated - the calibrated synthetic stream on every CPU, endless;
 *               at 7 processors the MBus is heavily loaded (measured
 *               load ~0.64-0.67).  This measures the cycle-by-cycle
 *               engine: bus phases, snoops, cache dispatch.
 *   idle      - each CPU halts after a small instruction burst, then
 *               the machine idles to the horizon.  This measures the
 *               idle fast-forward path: the simulator should leap to
 *               the horizon instead of ticking ~half a million empty
 *               cycles.
 *
 * Each point runs twice, fast-forward on and (forcibly) off, and
 * reports the ratio; behaviour and statistics are bit-identical
 * between the two (scripts/check.sh perf byte-compares the exports).
 * Wall clock is std::chrono::steady_clock; every point gets a warmup
 * run plus `--perf-reps` measured repetitions, best-of reported
 * (minimum wall time - host noise only ever slows a run down).
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "firefly/system.hh"
#include "sim/stats.hh"

namespace firefly
{
namespace
{

double perfSimSeconds = 0.05;
unsigned perfReps = 3;
std::string perfJsonPath;

struct Point
{
    const char *workload;  ///< "saturated" or "idle"
    ProtocolKind proto;
    unsigned cpus;
};

struct Measure
{
    double wallSec = 0.0;
    Cycle simCycles = 0;
    std::uint64_t refs = 0;
    Cycle ffSkipped = 0;

    double
    cyclesPerSec() const
    {
        return wallSec > 0.0 ? simCycles / wallSec : 0.0;
    }

    double
    refsPerSec() const
    {
        return wallSec > 0.0 ? refs / wallSec : 0.0;
    }
};

/** One full simulation of the point; returns wall time and totals.
 *  `headline` additionally exports the stat tree (--stats-json). */
Measure
runOnce(const Point &pt, bool fast_forward, bool headline)
{
    FireflyConfig cfg = FireflyConfig::microVax(pt.cpus);
    cfg.protocol = pt.proto;
    FireflySystem sys(cfg);

    SyntheticConfig sc;
    double simSeconds = perfSimSeconds;
    if (std::string(pt.workload) == "idle") {
        // A short burst, then halt: the machine spends the vast
        // majority of the (10x longer) simulated span with every
        // component quiescent.  This models the real duty cycle of a
        // workstation - bursts of activity in a sea of idle time.
        sc.instructionLimit = 500;
        simSeconds *= 10.0;
    }
    sys.attachSyntheticWorkload(sc);
    sys.simulator().setFastForward(fast_forward);

    const auto t0 = std::chrono::steady_clock::now();
    sys.run(simSeconds);
    const auto t1 = std::chrono::steady_clock::now();

    Measure m;
    m.wallSec = std::chrono::duration<double>(t1 - t0).count();
    m.simCycles = sys.simulator().now();
    m.refs = sys.totalCpuRefs();
    m.ffSkipped = sys.simulator().cyclesFastForwarded();
    if (headline)
        bench::exportStats(sys.stats());
    return m;
}

/** Warmup + perfReps measured runs; keeps the best (min wall). */
Measure
measure(const Point &pt, bool fast_forward, bool headline)
{
    runOnce(pt, fast_forward, false);  // warmup (host caches, JIT-free
                                       // but branch predictors count)
    Measure best;
    for (unsigned rep = 0; rep < perfReps; ++rep) {
        const Measure m = runOnce(pt, fast_forward, headline);
        if (rep == 0 || m.wallSec < best.wallSec)
            best = m;
    }
    return best;
}

void
experiment()
{
    bench::banner("X-PERF", "Host throughput of the simulator");
    std::printf(
        "Simulating %.3f s per point (%llu cycles), best of %u reps "
        "after warmup.\nff = idle fast-forward; 'speedup' is ff-on vs "
        "ff-off wall clock on the\nsame build (stats are "
        "byte-identical either way).\n\n",
        perfSimSeconds,
        static_cast<unsigned long long>(secondsToCycles(perfSimSeconds)),
        perfReps);

    const std::vector<Point> points = {
        {"idle", ProtocolKind::Firefly, 1},
        {"idle", ProtocolKind::Firefly, 4},
        {"idle", ProtocolKind::Firefly, 7},
        {"saturated", ProtocolKind::Firefly, 1},
        {"saturated", ProtocolKind::Firefly, 4},
        {"saturated", ProtocolKind::Firefly, 7},
        {"saturated", ProtocolKind::Dragon, 7},
        {"saturated", ProtocolKind::Mesi, 7},
    };

    std::printf("%-9s %-8s %3s | %12s %12s %9s | %12s %8s\n",
                "workload", "protocol", "np", "Mcycles/s", "Mrefs/s",
                "ff-skip%", "slow Mcyc/s", "speedup");
    bench::rule();

    std::string json;
    json += "{\"bench\":\"firefly_perf\",\"sim_seconds\":";
    json += statNumber(perfSimSeconds);
    json += ",\"reps\":" + std::to_string(perfReps);
    json += ",\"points\":[";

    bool first = true;
    for (const Point &pt : points) {
        // The headline export is the saturated 7-CPU Firefly machine.
        const bool headline = std::string(pt.workload) == "saturated" &&
                              pt.proto == ProtocolKind::Firefly &&
                              pt.cpus == 7;
        const Measure fast = measure(pt, true, headline);
        const Measure slow = measure(pt, false, false);
        const double speedup = fast.wallSec > 0.0
            ? slow.wallSec / fast.wallSec
            : 0.0;
        const double skipFrac = fast.simCycles
            ? 100.0 * fast.ffSkipped / fast.simCycles
            : 0.0;

        std::printf(
            "%-9s %-8s %3u | %12.2f %12.2f %8.1f%% | %12.2f %7.2fx\n",
            pt.workload, toString(pt.proto), pt.cpus,
            fast.cyclesPerSec() / 1e6, fast.refsPerSec() / 1e6,
            skipFrac, slow.cyclesPerSec() / 1e6, speedup);

        if (!first)
            json += ",";
        first = false;
        json += "{\"workload\":\"";
        json += pt.workload;
        json += "\",\"protocol\":\"";
        json += toString(pt.proto);
        json += "\",\"cpus\":" + std::to_string(pt.cpus);
        json += ",\"sim_cycles\":" + std::to_string(fast.simCycles);
        json += ",\"refs\":" + std::to_string(fast.refs);
        json += ",\"ff_skipped_cycles\":" +
                std::to_string(fast.ffSkipped);
        json += ",\"fast_cycles_per_sec\":" +
                statNumber(fast.cyclesPerSec());
        json += ",\"fast_refs_per_sec\":" +
                statNumber(fast.refsPerSec());
        json += ",\"slow_cycles_per_sec\":" +
                statNumber(slow.cyclesPerSec());
        json += ",\"speedup_vs_slow\":" + statNumber(speedup);
        json += "}";
    }
    json += "]}\n";

    bench::rule();
    std::printf("Host numbers vary by machine; the committed "
                "BENCH_perf.json is the trajectory\nbaseline "
                "scripts/check.sh perf compares against.\n");

    if (!perfJsonPath.empty()) {
        std::ofstream os(perfJsonPath);
        if (!os)
            fatal("cannot write perf JSON to %s", perfJsonPath.c_str());
        os << json;
    }
}

} // namespace
} // namespace firefly

int
main(int argc, char **argv)
{
    using firefly::bench::ExtraFlag;
    const std::vector<ExtraFlag> extras = {
        {"--perf-json=", "write machine-readable results to FILE",
         [](const std::string &v) {
             firefly::perfJsonPath = v;
             return true;
         }},
        {"--perf-reps=", "measured repetitions per point (default 3)",
         [](const std::string &v) {
             const int n = std::atoi(v.c_str());
             if (n < 1 || n > 100)
                 return false;
             firefly::perfReps = static_cast<unsigned>(n);
             return true;
         }},
        {"--perf-seconds=", "simulated seconds per point (default 0.05)",
         [](const std::string &v) {
             const double s = std::atof(v.c_str());
             if (s <= 0.0 || s > 10.0)
                 return false;
             firefly::perfSimSeconds = s;
             return true;
         }},
    };
    return firefly::bench::runBenchMain(argc, argv,
                                        firefly::experiment, extras);
}
