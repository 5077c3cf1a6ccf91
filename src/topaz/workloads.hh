/**
 * @file
 * Canned Topaz workloads.
 *
 *  - The Threads exerciser of paper Table 2: "forks a number of
 *    threads, each of which then executes and checks the results of
 *    Threads package primitives.  There is a great deal of
 *    synchronization and process migration, since the threads
 *    deliberately block and reschedule themselves."
 *
 *  - The parallel make of Section 6: a coordinator forks independent
 *    compilation jobs and joins them - coarse-grained parallelism
 *    with almost no sharing.
 */

#ifndef FIREFLY_TOPAZ_WORKLOADS_HH
#define FIREFLY_TOPAZ_WORKLOADS_HH

#include "topaz/runtime.hh"

namespace firefly
{

/** Parameters for the Table 2 Threads exerciser. */
struct ExerciserParams
{
    unsigned threads = 12;
    std::uint64_t iterations = 150;
};

/**
 * Build the Threads exerciser: `threads` workers spread over four
 * mutex/condition groups.  Each iteration locks, bumps the group's
 * lock-protected shared counter (a real read-modify-write through
 * the coherent memory), touches shared and private data, signals and
 * waits on the group condition (deliberate blocking/rescheduling),
 * yields, and computes 150 instructions.
 *
 * @return the expected final sum of the shared counters, so callers
 *         can check end-to-end mutual exclusion + coherence.
 */
std::uint64_t buildThreadsExerciser(TopazRuntime &runtime,
                                    const ExerciserParams &params);

/** Parameters for the parallel make workload. */
struct ParallelMakeParams
{
    unsigned jobs = 8;
    /** Instructions per compilation job. */
    std::uint64_t jobInstructions = 4000;
};

/**
 * Build the parallel make: thread 0 is the coordinator; it forks
 * `jobs` compilations and joins them all.  Compilations are compute-
 * heavy and private (the coarse-grained parallelism of Section 6).
 */
void buildParallelMake(TopazRuntime &runtime,
                       const ParallelMakeParams &params);

} // namespace firefly

#endif // FIREFLY_TOPAZ_WORKLOADS_HH
