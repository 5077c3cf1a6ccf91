/**
 * @file
 * Experiment X1: validate the Section 5.2 analytic model against the
 * cycle-level simulator across processor counts, reproducing the
 * paper's scaling claims: bus load ~0.4 and ~85% per-processor speed
 * at five CPUs, saturation around nine.
 */

#include <cstdio>
#include <vector>

#include "analytic/queueing_model.hh"
#include "bench_util.hh"
#include "firefly/system.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "topaz/runtime.hh"
#include "topaz/workloads.hh"

using namespace firefly;

namespace
{

struct SimPoint
{
    double load;
    double tpi;
    double rp;
    double tp;
    double missRate;
};

SimPoint
simulate(unsigned np, double seconds = 0.12)
{
    // The sweep simulates 1.2 s of machine time across ten
    // configurations; tracing it would swamp the recorded file (the
    // flight-recorder run below is the tracing target), so mute the
    // sink for the sweep's duration.
    obs::ScopedTraceSink mute(nullptr);

    FireflySystem sys(
        bench::checkedConfig(FireflyConfig::microVax(np)));
    sys.attachSyntheticWorkload(SyntheticConfig{});
    sys.run(seconds);

    double tpi_sum = 0;
    double total_ips = 0;
    double miss_sum = 0;
    for (unsigned i = 0; i < np; ++i) {
        tpi_sum += sys.cpu(i).tpi();
        total_ips += sys.cpu(i).instructions() / sys.seconds();
        miss_sum += sys.cache(i).stats().get("miss_rate");
    }
    const double tpi = tpi_sum / np;
    // One no-wait-state processor executes 1/(11.9 * 200ns) instr/s.
    const double nowait_ips = 1.0 / (microVaxBaseTpi * 200e-9);
    return {sys.busLoad(), tpi, microVaxBaseTpi / tpi,
            total_ips / nowait_ips, miss_sum / np};
}

/**
 * The flight-recorder run: a five-CPU machine driving the Topaz
 * Threads exerciser, so the recorded trace carries every subsystem -
 * MBus transactions, cache line transitions, CPU stalls, and
 * scheduler dispatch/ready/migrate - and --stats-json captures the
 * full Table-2 stat tree.  Only runs when observability output was
 * requested; the printed experiment above is unchanged either way.
 */
void
observedRun()
{
    const unsigned cpus = 5;
    FireflySystem sys(
        bench::checkedConfig(FireflyConfig::microVax(cpus)));
    TopazConfig tc;
    tc.cpus = cpus;
    TopazRuntime runtime(tc);
    ExerciserParams params;
    params.threads = 16;
    params.iterations = 10;
    buildThreadsExerciser(runtime, params);

    std::vector<RefSource *> sources;
    for (unsigned i = 0; i < cpus; ++i)
        sources.push_back(&runtime.port(i));
    sys.attachSources(sources);

    // FireflySystem::runToCompletion's loop, sampling bus
    // utilisation and miss rate every 10k cycles (1 ms simulated)
    // into the trace as counters: bus busy cycles and cache 0 fills
    // in the window that ends at the sample, and cache 0's miss rate
    // so far.
    constexpr Cycle kSamplePeriod = 10'000;
    constexpr Cycle kMaxCycles = 20'000'000;
    Simulator &sim = sys.simulator();
    const StatGroup &bus = sys.bus().stats();
    const StatGroup &cache0 = sys.cache(0).stats();
    double busy = 0;
    double fills = 0;
    std::size_t samples = 0;
    while (!sys.allHalted() && sim.now() < kMaxCycles) {
        if (sim.now() % kSamplePeriod == 0) {
            ++samples;
            if (auto *ts = obs::traceSink()) {
                const double b = bus.get("busy_cycles");
                const double f = cache0.get("fills");
                ts->counter(sim.now(), obs::kCatMBus, bus.name(),
                            "bus.busy", b - busy);
                ts->counter(sim.now(), obs::kCatCache, cache0.name(),
                            "cache0.fills", f - fills);
                ts->counter(sim.now(), obs::kCatCache, cache0.name(),
                            "cache0.miss_rate", cache0.get("miss_rate"));
                busy = b;
                fills = f;
            }
        }
        sim.run(1000);
    }
    if (!sys.allHalted())
        warn("runToCompletion hit the cycle limit");

    std::printf("\nObserved run (5 CPUs, Threads exerciser): "
                "%.3f ms simulated, bus load %.2f, %zu samples\n",
                sys.seconds() * 1e3, sys.busLoad(), samples);

    bench::exportStats(sys.stats());
}

void
experiment()
{
    bench::banner("X1",
                  "Scaling: analytic model vs cycle-level simulation");
    std::printf("Synthetic calibrated workload (M~0.2, D~0.25, "
                "S=0.1); simulation of 0.12 s per point.\n\n");
    std::printf("%4s | %21s | %31s\n", "",
                "analytic (Table 1 model)", "simulated (this system)");
    std::printf("%4s | %6s %6s %6s %6s | %6s %6s %6s %6s %6s\n", "NP",
                "L", "TPI", "RP", "TP", "L", "TPI", "RP", "TP", "M");
    bench::rule();

    QueueingModel model;
    // The ten table rows plus the headline five-CPU machine, one
    // independent simulation per point, --jobs at a time.
    const std::vector<unsigned> nps = {1u, 2u,  3u, 4u, 5u, 6u,
                                       7u, 8u, 10u, 12u, 5u};
    const auto sims = bench::runSweep(
        nps, [](unsigned np) { return simulate(np); });
    for (std::size_t i = 0; i + 1 < nps.size(); ++i) {
        const unsigned np = nps[i];
        const auto row = model.rowForProcessors(np);
        const auto &sim = sims[i];
        std::printf(
            "%4u | %6.2f %6.1f %6.2f %6.2f | %6.2f %6.1f %6.2f %6.2f "
            "%6.2f\n",
            np, row.busLoad, row.tpi, row.relativePerf, row.totalPerf,
            sim.load, sim.tpi, sim.rp, sim.tp, sim.missRate);
    }

    bench::rule();
    const auto &five = sims.back();
    std::printf("Five-CPU machine (paper: L~0.4, RP~0.85, TP>4): "
                "simulated L=%.2f RP=%.2f TP=%.2f\n",
                five.load, five.rp, five.tp);

    if (bench::obsOptions().observing())
        observedRun();
}

} // namespace

int
main(int argc, char **argv)
{
    return firefly::bench::runBenchMain(argc, argv, experiment);
}
