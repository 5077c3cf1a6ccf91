#include "topaz/workloads.hh"

#include "sim/logging.hh"

namespace firefly
{

namespace
{

/** The exerciser's per-iteration work and its mutex/condition groups. */
constexpr unsigned kComputeInstructions = 150;
constexpr unsigned kSharedTouches = 2;
constexpr unsigned kPrivateTouches = 10;
constexpr unsigned kGroups = 4;
static_assert(kGroups <= TopazRuntime::mutexCount &&
                  kGroups <= TopazRuntime::conditionCount &&
                  kGroups <= TopazConfig::counters,
              "every exerciser group needs a mutex, condition and counter");

/** Private data each compilation job touches per half. */
constexpr unsigned kJobPrivateTouches = 64;

} // namespace

std::uint64_t
buildThreadsExerciser(TopazRuntime &runtime,
                      const ExerciserParams &params)
{
    if (params.threads == 0)
        fatal("exerciser needs threads");

    for (unsigned t = 0; t < params.threads; ++t) {
        const unsigned group = t % kGroups;
        BehaviorProgram prog;
        prog.name = "exerciser-" + std::to_string(t);
        prog.iterations = params.iterations;
        prog.body = {
            BehaviorOp::lockAcquire(group),
            BehaviorOp::incrementCounter(group),
            BehaviorOp::touchShared(kSharedTouches),
            BehaviorOp::signal(group),
            BehaviorOp::wait(group, group),
            BehaviorOp::lockRelease(group),
            BehaviorOp::yield(),
            BehaviorOp::compute(kComputeInstructions),
            BehaviorOp::touchPrivate(kPrivateTouches),
        };
        const unsigned prog_id = runtime.registerProgram(prog);
        runtime.addThread(prog_id);
    }
    return static_cast<std::uint64_t>(params.threads) *
           params.iterations;
}

void
buildParallelMake(TopazRuntime &runtime,
                  const ParallelMakeParams &params)
{
    if (params.jobs == 0)
        fatal("parallel make needs jobs");

    // The compilation job: compute-heavy, private data only (each
    // compiler instance reads its own source and writes its own
    // object file).
    BehaviorProgram job;
    job.name = "compile";
    job.iterations = 1;
    job.body = {
        BehaviorOp::compute(
            static_cast<std::uint32_t>(params.jobInstructions / 2)),
        BehaviorOp::touchPrivate(kJobPrivateTouches),
        BehaviorOp::compute(
            static_cast<std::uint32_t>(params.jobInstructions / 2)),
        BehaviorOp::touchPrivate(kJobPrivateTouches),
    };
    const unsigned job_id = runtime.registerProgram(job);

    // The coordinator (make itself): fork everything, then join.
    BehaviorProgram make;
    make.name = "make";
    make.iterations = 1;
    for (unsigned i = 0; i < params.jobs; ++i)
        make.body.push_back(BehaviorOp::fork(job_id));
    make.body.push_back(BehaviorOp::compute(100));
    make.body.push_back(BehaviorOp::joinAll());
    const unsigned make_id = runtime.registerProgram(make);
    runtime.addThread(make_id);
}

} // namespace firefly
