/**
 * @file
 * Experiment X3: the process-migration ablation.
 *
 * "The disadvantage of this conditional write-through strategy is
 * that write-through continues as long as a datum resides in more
 * than one cache... If processes are allowed to move freely between
 * processors, the number of unnecessary writes could be significant,
 * since most of the writeable data for a process will be in both the
 * old and the new cache... For this reason, the Topaz scheduler goes
 * to some effort to avoid process migration."
 *
 * We run the Threads exerciser under the affinity scheduler and the
 * free-migration (global queue) scheduler and compare migrations,
 * MShared write-throughs, and bus load.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "firefly/system.hh"
#include "topaz/workloads.hh"

using namespace firefly;

namespace
{

struct Result
{
    double migrations;
    double wtMshared;      ///< per 1000 user instructions
    double busLoad;
    double elapsedMs;
};

Result
run(SchedulerPolicy policy, ProtocolKind protocol)
{
    auto cfg = FireflyConfig::microVax(4);
    cfg.protocol = protocol;
    FireflySystem sys(bench::checkedConfig(cfg));

    TopazConfig tc;
    tc.cpus = 4;
    tc.policy = policy;
    TopazRuntime runtime(tc);
    ExerciserParams params;
    params.threads = 12;
    params.iterations = 250;
    buildThreadsExerciser(runtime, params);

    std::vector<RefSource *> sources;
    for (unsigned i = 0; i < 4; ++i)
        sources.push_back(&runtime.port(i));
    sys.attachSources(sources);
    sys.runToCompletion(40'000'000);
    bench::exportStats(sys.stats());

    double wt_shared = 0;
    for (unsigned i = 0; i < 4; ++i)
        wt_shared += sys.cache(i).wtMshared.value();
    const double kinstr =
        (runtime.userInstructions.value() +
         runtime.kernelInstructions.value()) / 1000.0;
    return {static_cast<double>(runtime.migrations.value()),
            wt_shared / kinstr, sys.busLoad(),
            sys.seconds() * 1e3};
}

void
experiment()
{
    bench::banner("X3",
                  "Scheduler migration policy vs conditional "
                  "write-through");
    std::printf("Threads exerciser, 12 threads, 4 CPUs.\n\n");
    std::printf("%-10s %-10s %12s %18s %10s %12s\n", "protocol",
                "scheduler", "migrations", "MShared WT/k-instr",
                "bus load", "runtime(ms)");
    bench::rule();

    // One independent simulation per (protocol, policy) point.
    struct Point
    {
        ProtocolKind protocol;
        SchedulerPolicy policy;
    };
    std::vector<Point> points;
    for (auto protocol : {ProtocolKind::Firefly, ProtocolKind::Mesi}) {
        for (auto policy :
             {SchedulerPolicy::Affinity, SchedulerPolicy::Global})
            points.push_back({protocol, policy});
    }
    const auto results = bench::runSweep(points, [](const Point &p) {
        return run(p.policy, p.protocol);
    });
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &result = results[i];
        std::printf("%-10s %-10s %12.0f %18.1f %10.2f %12.1f\n",
                    toString(points[i].protocol),
                    toString(points[i].policy), result.migrations,
                    result.wtMshared, result.busLoad,
                    result.elapsedMs);
    }

    bench::rule();
    std::printf(
        "Expected shape: under Firefly, the global queue migrates\n"
        "threads constantly, leaving stale copies in old caches, so\n"
        "write-throughs with MShared and the bus load rise and the\n"
        "run takes longer - the reason Topaz avoids migration.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return firefly::bench::runBenchMain(argc, argv, experiment);
}
