/**
 * @file
 * The Topaz Threads exerciser (the Table 2 workload) as a runnable
 * program: forks worker threads that lock, update shared counters
 * through the coherent memory system, signal, wait, yield and
 * migrate, then verifies the counters and prints the machine's
 * hardware-counter view.
 *
 * Usage: threads_exerciser [cpus] [threads] [affinity|global]
 *        threads_exerciser --structure   (print paper Figure 2)
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hh"
#include "firefly/system.hh"
#include "topaz/workloads.hh"

using namespace firefly;

namespace
{

/** Most worker threads the command line accepts. */
constexpr unsigned kMaxThreads = 1024;

void
printStructure()
{
    // Paper Figure 2: the internal structure of Topaz.
    std::puts(
        "  Internal structure of Topaz (paper Figure 2)\n"
        "\n"
        "   user mode\n"
        "  +-------------+  +-------------+  +---------+  +---------+\n"
        "  | Ultrix      |  | Topaz       |  | Taos    |  | UserTTD |\n"
        "  | application |  | application |  | (OS)    |  | (debug) |\n"
        "  | (1 thread)  |  | (n threads) |  |         |  |         |\n"
        "  +------+------+  +------+------+  +----+----+  +----+----+\n"
        "         |                |              |            |\n"
        "         +-------- remote procedure calls ------------+\n"
        "                          |\n"
        "   kernel mode     +------+------+\n"
        "                   |     Nub     |  virtual memory, thread\n"
        "                   |  (+ NubTTD) |  scheduling, drivers, RPC\n"
        "                   +-------------+  transport\n");
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned cpus = 4;
    unsigned threads = 12;
    SchedulerPolicy policy = SchedulerPolicy::Affinity;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--structure") == 0) {
            printStructure();
            return 0;
        } else if (std::strcmp(argv[i], "global") == 0) {
            policy = SchedulerPolicy::Global;
        } else if (std::strcmp(argv[i], "affinity") == 0) {
            policy = SchedulerPolicy::Affinity;
        } else if (auto n = bench::parseCount(
                       argv[i], i == 1 ? FireflyConfig::maxProcessors
                                       : kMaxThreads)) {
            if (i == 1)
                cpus = *n;
            else
                threads = *n;
        } else {
            std::fprintf(stderr,
                         "usage: %s [cpus] [threads] [affinity|global]\n"
                         "       %s --structure\n"
                         "  cpus: 1-%u (default 4), threads: 1-%u "
                         "(default 12)\n",
                         argv[0], argv[0], FireflyConfig::maxProcessors,
                         kMaxThreads);
            return 2;
        }
    }

    FireflySystem sys(FireflyConfig::microVax(cpus));
    TopazConfig tc;
    tc.cpus = cpus;
    tc.policy = policy;
    TopazRuntime runtime(tc);

    ExerciserParams params;
    params.threads = threads;
    params.iterations = 200;
    const auto expected = buildThreadsExerciser(runtime, params);

    std::vector<RefSource *> sources;
    for (unsigned i = 0; i < cpus; ++i)
        sources.push_back(&runtime.port(i));
    sys.attachSources(sources);

    std::printf("Threads exerciser: %u threads on %u CPUs, %s "
                "scheduler\n", threads, cpus, toString(policy));
    sys.runToCompletion();

    // Verify the lock-protected counters end-to-end: every increment
    // was a real read-modify-write through the coherent caches.
    for (unsigned i = 0; i < cpus; ++i)
        sys.cache(i).flushFunctional();
    std::uint64_t total = 0;
    for (unsigned c = 0; c < TopazConfig::counters; ++c)
        total += sys.memory().read(runtime.counterAddr(c));
    std::printf("\nshared counters: %llu of %llu expected increments "
                "%s\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(expected),
                total == expected ? "(exact - coherence held)"
                                  : "(MISMATCH!)");

    std::printf("\nruntime statistics after %.3f simulated "
                "seconds:\n", sys.seconds());
    std::printf("  context switches  %10llu\n",
                static_cast<unsigned long long>(
                    runtime.contextSwitches.value()));
    std::printf("  migrations        %10llu\n",
                static_cast<unsigned long long>(
                    runtime.migrations.value()));
    std::printf("  locks acquired    %10llu (%llu contended)\n",
                static_cast<unsigned long long>(
                    runtime.locksAcquired.value()),
                static_cast<unsigned long long>(
                    runtime.lockContentions.value()));
    std::printf("  waits / signals   %10llu / %llu\n",
                static_cast<unsigned long long>(runtime.waits.value()),
                static_cast<unsigned long long>(
                    runtime.signals.value()));

    double wt_shared = 0, wt_clear = 0;
    for (unsigned i = 0; i < cpus; ++i) {
        wt_shared += sys.cache(i).wtMshared.value();
        wt_clear += sys.cache(i).wtNoMshared.value();
    }
    std::printf("\nhardware view:\n");
    std::printf("  bus load                    %6.2f\n", sys.busLoad());
    std::printf("  write-throughs w/ MShared   %6.0f%%  (the Table 2 "
                "sharing signature)\n",
                100.0 * wt_shared / (wt_shared + wt_clear));
    return total == expected ? 0 : 1;
}
