/**
 * @file
 * Experiment T2: regenerate paper Table 2, "Firefly Measured
 * Performance (K refs/sec)" - the Topaz Threads exerciser running on
 * one-CPU and five-CPU machines, with the hardware counter box's
 * categories: per-CPU read/write rates, MBus total references and
 * load, per-CPU MBus reads (miss ratio M), write-throughs split by
 * MShared, and victim writes.
 *
 * The paper's "Expected" column came from the authors' trace-driven
 * simulation; their "Actual" column from hardware counters.  We print
 * both next to this simulator's measurement.  Absolute rates need not
 * match (the real exerciser's instruction mix is lost); the shape
 * must: heavy sharing (a large fraction of bus writes receiving
 * MShared on the 5-CPU machine), few victim writes relative to
 * write-throughs, higher bus load with five CPUs, and a 5-CPU
 * per-processor rate below the 1-CPU rate.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "firefly/system.hh"
#include "topaz/workloads.hh"

using namespace firefly;

namespace
{

struct Table2Column
{
    unsigned cpus;
    double perCpuReadsK;
    double perCpuWritesK;
    double perCpuTotalK;
    double mbusTotalK;
    double busLoad;
    double perCpuMbusReadsK;
    double missRatio;          ///< MBus reads / CPU refs (paper's M)
    double wtMsharedK;
    double wtNoMsharedK;
    double victimsK;
    double wtMsharedFraction;  ///< of all CPU bus writes
};

Table2Column
runExerciser(unsigned cpus)
{
    FireflySystem sys(FireflyConfig::microVax(cpus));
    TopazConfig tc;
    tc.cpus = cpus;
    TopazRuntime runtime(tc);
    ExerciserParams params;
    params.threads = 16;
    params.iterations = cpus == 1 ? 120 : 400;
    buildThreadsExerciser(runtime, params);

    std::vector<RefSource *> sources;
    for (unsigned i = 0; i < cpus; ++i)
        sources.push_back(&runtime.port(i));
    sys.attachSources(sources);
    sys.runToCompletion(20'000'000);  // at most 2 simulated seconds
    bench::exportStats(sys.stats());

    const double secs = sys.seconds();
    double reads = 0, writes = 0, fills = 0, wt_sh = 0, wt_no = 0,
           victims = 0;
    for (unsigned i = 0; i < cpus; ++i) {
        reads += sys.cache(i).refsInstr.value() +
                 sys.cache(i).refsRead.value();
        writes += sys.cache(i).refsWrite.value();
        fills += sys.cache(i).fills.value();
        wt_sh += sys.cache(i).wtMshared.value();
        wt_no += sys.cache(i).wtNoMshared.value();
        victims += sys.cache(i).victimWrites.value();
    }
    const double mbus_refs = sys.bus().stats().get("reads") +
                             sys.bus().stats().get("writes");

    Table2Column col;
    col.cpus = cpus;
    col.perCpuReadsK = reads / cpus / secs / 1e3;
    col.perCpuWritesK = writes / cpus / secs / 1e3;
    col.perCpuTotalK = (reads + writes) / cpus / secs / 1e3;
    col.mbusTotalK = mbus_refs / secs / 1e3;
    col.busLoad = sys.busLoad();
    col.perCpuMbusReadsK = fills / cpus / secs / 1e3;
    col.missRatio = fills / (reads + writes);
    col.wtMsharedK = wt_sh / cpus / secs / 1e3;
    col.wtNoMsharedK = wt_no / cpus / secs / 1e3;
    col.victimsK = victims / cpus / secs / 1e3;
    const double bus_writes = wt_sh + wt_no + victims;
    col.wtMsharedFraction = bus_writes > 0 ? wt_sh / bus_writes : 0.0;
    return col;
}

void
experiment()
{
    bench::banner("Table 2",
                  "Firefly Measured Performance (K refs/sec), Topaz "
                  "Threads exerciser");

    // The two columns are independent machines: one sweep, --jobs
    // at a time.
    const auto columns =
        bench::runSweep(std::vector<unsigned>{1, 5}, runExerciser);
    const Table2Column &one = columns[0];
    const Table2Column &five = columns[1];

    std::printf("\n%-38s %14s %14s\n", "", "One-CPU system",
                "Five-CPU system");
    std::printf("%-38s %14s %14s\n", "(paper expected / paper actual)",
                "(850 / 1350)", "(752 / 1075)");
    bench::rule();
    auto row = [](const char *name, double a, double b) {
        std::printf("%-38s %14.0f %14.0f\n", name, a, b);
    };
    row("Per CPU: Reads (K/s)", one.perCpuReadsK, five.perCpuReadsK);
    std::printf("%-38s %14s %14s\n", "  (paper expected/actual)",
                "688 / 1125", "609 / 850");
    row("Per CPU: Writes (K/s)", one.perCpuWritesK,
        five.perCpuWritesK);
    std::printf("%-38s %14s %14s\n", "  (paper expected/actual)",
                "161 / 240", "143 / 225");
    row("Per CPU: Total (K/s)", one.perCpuTotalK, five.perCpuTotalK);
    bench::rule();
    row("MBus total references (K/s)", one.mbusTotalK,
        five.mbusTotalK);
    std::printf("%-38s %14s %14s\n", "  (paper actual)", "440", "1350");
    std::printf("%-38s %13.2f  %13.2f\n", "Bus load L", one.busLoad,
                five.busLoad);
    std::printf("%-38s %14s %14s\n", "  (paper actual)", "0.18",
                "0.54");
    bench::rule();
    row("MBus reads per CPU (K/s)", one.perCpuMbusReadsK,
        five.perCpuMbusReadsK);
    std::printf("%-38s %14s %14s\n", "  (paper actual)", "340 (M=.3)",
                "145 (M=.17)");
    std::printf("%-38s %13.2f  %13.2f\n", "  miss ratio M",
                one.missRatio, five.missRatio);
    row("Writes that received MShared (K/s)", one.wtMsharedK,
        five.wtMsharedK);
    std::printf("%-38s %14s %14s\n", "  (paper actual)", "0", "75");
    row("Writes without MShared (K/s)", one.wtNoMsharedK,
        five.wtNoMsharedK);
    std::printf("%-38s %14s %14s\n", "  (paper actual)", "50", "20");
    row("Victim writes (K/s)", one.victimsK, five.victimsK);
    std::printf("%-38s %14s %14s\n", "  (paper actual)", "10", "50");
    bench::rule();

    std::printf(
        "Shape checks (paper Section 5.3):\n"
        "  5-CPU write-throughs receiving MShared: %.0f%% of CPU bus "
        "writes (paper: 75 of 95+50 non-victim, ~33%% of all 225 "
        "writes)\n",
        five.wtMsharedFraction * 100);
    std::printf("  1-CPU MShared write-throughs: %.1f K/s (paper: 0 - "
                "nobody to share with)\n", one.wtMsharedK);
    std::printf("  Bus load rises 1->5 CPUs: %.2f -> %.2f (paper: "
                "0.18 -> 0.54)\n", one.busLoad, five.busLoad);
    std::printf("  Per-CPU rate falls 1->5 CPUs: %.0f -> %.0f K "
                "refs/s (paper actual: 1350 -> 1075)\n",
                one.perCpuTotalK, five.perCpuTotalK);
}

} // namespace

int
main(int argc, char **argv)
{
    return firefly::bench::runBenchMain(argc, argv, experiment);
}
