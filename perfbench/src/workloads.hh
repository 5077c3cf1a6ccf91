/**
 * @file
 * The benchmark's four workloads and the correctness gate.
 *
 * Every workload is closed: a fixed simulated job built from the
 * benchmark seed through the simulator's public API.  A Rig is one
 * built machine with its workload attached (the set-up the benchmark
 * times); run() or runSliced() executes the job; finish() digests the
 * statistics and checks the outcome.
 *
 * With a Spans pointer the rig is built for the traced run: the
 * generators are wrapped in TimedSource and, on checked7, the checker
 * is built here from its public constructor so its hooks and bus
 * observers can be timed (probes.hh).  The machine is otherwise the
 * same, and so is its digest.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/coherence_checker.hh"
#include "firefly/system.hh"
#include "io/disk.hh"
#include "io/ethernet.hh"
#include "io/qbus.hh"
#include "probes.hh"
#include "sim/random.hh"
#include "topaz/runtime.hh"

namespace perfbench
{

/** Simulated cycles per slice of a sliced run.  It is
 *  FireflySystem::runToCompletion's own step, so a sliced threads5
 *  run stops on the same cycle as an uncut one. */
constexpr firefly::Cycle kSliceCycles = 1000;

enum class WorkloadKind
{
    Saturated7,
    Checked7,
    Threads5,
    DmaIdle,
};

struct WorkloadSpec
{
    WorkloadKind kind;
    const char *name;
    /** Where model_error_pct's reference bus load comes from. */
    const char *reference;
    /** Distinct jobs an invocation rotates through (jobSeed). */
    unsigned jobs;
};

const std::vector<WorkloadSpec> &workloads();
/** nullptr if no workload has this name. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Seed of the job that run `run` of an invocation with benchmark
 *  seed `seed` simulates.  Rotating over several jobs makes a figure
 *  that depends on the job (above all model_error_pct) an average
 *  rather than one job's draw. */
std::uint64_t jobSeed(const WorkloadSpec &spec, std::uint64_t seed,
                      std::size_t run);

/** The paper's bus load for the workload (never simulator output). */
double referenceLoad(const WorkloadSpec &spec);

/** One run's result: digest, verdict and deterministic counts. */
struct Outcome
{
    std::uint64_t digest = 0;
    bool ok = true;
    std::string failure;  ///< first failed check, if any
    firefly::Cycle cycles = 0;
    double busLoad = 0.0;
    /** Per-layer "count" metrics, by metric name. */
    std::map<std::string, double> counts;
};

/** One machine with its workload attached. */
class Rig
{
  public:
    Rig(const WorkloadSpec &spec, std::uint64_t seed,
        Spans *spans = nullptr);
    ~Rig();

    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /** Run the whole job in one call. */
    void run();
    /** Run the same job cut into kSliceCycles slices, recording each
     *  slice's host time when traced. */
    void runSliced();
    /** Digest the statistics, then check the outcome.  Call once. */
    Outcome finish();

  private:
    void attachSynthetic();
    void attachTopaz();
    void attachIo();
    void receiveNext();
    void writeNext();
    /** Run `body`, turning a wedge or a violation into a failure. */
    template <typename Body> void guarded(Body body);
    firefly::check::CoherenceChecker *checker();
    std::map<std::string, double> countMetrics();
    std::uint64_t digest();

    const WorkloadSpec &spec;
    const std::uint64_t seed;
    Spans *const spans;
    std::string failure;

    // Declared first, destroyed last: everything below refers to it.
    std::unique_ptr<firefly::FireflySystem> sys;

    std::vector<std::unique_ptr<firefly::SyntheticStream>> streams;
    std::vector<std::unique_ptr<TimedSource>> timedSources;

    std::unique_ptr<firefly::TopazRuntime> topaz;
    std::uint64_t expectedSum = 0;

    std::unique_ptr<firefly::check::CoherenceChecker> ownChecker;
    std::unique_ptr<TimedObserver> checkerProxy;

    std::unique_ptr<firefly::QBus> qbus;
    std::unique_ptr<firefly::EthernetController> nic;
    std::unique_ptr<firefly::DiskController> disk;
    firefly::Rng ioRng;
    std::uint64_t rxPosted = 0;
    std::uint64_t diskWrites = 0;
    std::uint64_t ioFailures = 0;
};

/** FNV-1a of a string. */
std::uint64_t fnv1a(const std::string &text);

/** `group`'s dumpJson with the named child group's subtree cut out. */
std::string statsJsonWithout(firefly::StatGroup &group,
                             const std::string &child);

/** Mean of histogram `name` in `group` (read from its dumpJson). */
double histogramMean(firefly::StatGroup &group, const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
