/**
 * @file
 * The parallel make of paper Section 6: "we have implemented a
 * parallel version of the Unix make utility, which forks multiple
 * compilations in parallel when possible."  A coordinator thread
 * forks compilation jobs and joins them; we sweep the processor
 * count and print the build-time speedup - the coarse-grained
 * parallelism the Firefly was built for.
 *
 * Usage: parallel_make [jobs]
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "firefly/system.hh"
#include "topaz/workloads.hh"

using namespace firefly;

namespace
{

/** Most compilation jobs the command line accepts. */
constexpr unsigned kMaxJobs = 1024;

double
buildTime(unsigned cpus, unsigned jobs)
{
    FireflySystem sys(FireflyConfig::microVax(cpus));
    TopazConfig tc;
    tc.cpus = cpus;
    TopazRuntime runtime(tc);

    ParallelMakeParams params;
    params.jobs = jobs;
    params.jobInstructions = 20000;
    buildParallelMake(runtime, params);

    std::vector<RefSource *> sources;
    for (unsigned i = 0; i < cpus; ++i)
        sources.push_back(&runtime.port(i));
    sys.attachSources(sources);
    sys.runToCompletion();
    return sys.seconds();
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 8;
    if (argc > 1) {
        const auto n = argc == 2 ? bench::parseCount(argv[1], kMaxJobs)
                                 : std::nullopt;
        if (!n) {
            std::fprintf(stderr,
                         "usage: %s [jobs]\n  jobs: 1-%u (default 8)\n",
                         argv[0], kMaxJobs);
            return 2;
        }
        jobs = *n;
    }

    std::printf("parallel make: %u compilation jobs\n\n", jobs);
    std::printf("%6s %14s %10s %12s\n", "CPUs", "build time (ms)",
                "speedup", "efficiency");

    const double serial = buildTime(1, jobs);
    for (unsigned cpus : {1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
        const double t = cpus == 1 ? serial : buildTime(cpus, jobs);
        std::printf("%6u %14.1f %9.2fx %11.0f%%\n", cpus, t * 1e3,
                    serial / t, 100.0 * serial / t / cpus);
    }
    std::printf("\n(Compilations are independent, so the build scales "
                "until it runs out of jobs or bus bandwidth - the "
                "coarse-grained concurrency of Section 2.)\n");
    return 0;
}
