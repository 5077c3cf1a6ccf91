/**
 * @file
 * perfbench: the simulator's benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 measures the end-to-end metrics: the workload is built and
 * run over and over for S seconds, untraced, and every run is checked.
 * --trace 1 measures the per-layer metrics in a separate invocation:
 * untraced runs (the baseline for the tracing overhead and the source
 * of the deterministic counts) alternating with traced sliced runs,
 * then the unit microbenchmarks.  Human-readable lines come first; the last line of
 * standard output is the JSON result.
 *
 * Runs rotate over the workload's jobs (workloads.hh jobSeed).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "clock.hh"
#include "report.hh"
#include "units.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

// Machines built (and not run) after each timed run, so that setup_s
// is a median over many set-ups spread across the whole window.
constexpr unsigned kExtraSetups = 8;
// Fewest traced runs.
constexpr std::size_t kMinTracedRuns = 3;
// Shares of --seconds in a traced invocation: untraced and traced
// runs, then the unit microbenchmarks.
constexpr double kRunsShare = 0.75;
constexpr double kUnitsShare = 0.25;

struct Args
{
    const WorkloadSpec *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    std::uint64_t
    jobSeed(std::size_t run) const
    {
        return perfbench::jobSeed(*workload, seed, run);
    }
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1\nworkloads:",
                 why);
    for (const WorkloadSpec &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = findWorkload(value);
            if (!args.workload)
                usage(("unknown workload " + value).c_str());
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0) ||
                args.seconds > 3600) {
                usage("--seconds takes a number in (0, 3600]");
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!args.workload)
        usage("--workload is required");
    return args;
}

std::string
hostCpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** Peak resident memory of this process image.  VmHWM, not
 *  getrusage: ru_maxrss carries the launching process's peak across
 *  exec, so it would count the launcher. */
double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    std::fprintf(stderr, "perfbench: no VmHWM in /proc/self/status\n");
    std::exit(1);
}

/**
 * The correctness gate: counts runs and failures.  A run fails its own
 * checks, or differs in digest from the first run of the same job.
 */
class Gate
{
  public:
    explicit Gate(unsigned jobs) : firsts(jobs) {}

    void
    record(const char *kind, std::size_t run, const Outcome &out)
    {
        ++attempted;
        auto &first = firsts[run % firsts.size()];
        if (!first)
            first = out;
        std::string why = out.failure;
        if (out.ok && out.digest != first->digest)
            why = "digest differs from the job's first run";
        if (!why.empty()) {
            ++failed;
            std::printf("FAIL %s run %zu: %s\n", kind, run, why.c_str());
        }
    }

    /** Mean over the jobs of each job's first outcome. */
    double
    meanLoad() const
    {
        double sum = 0;
        for (const auto &f : firsts)
            sum += f->busLoad;
        return sum / firsts.size();
    }

    std::map<std::string, double>
    meanCounts() const
    {
        std::map<std::string, double> mean;
        for (const auto &f : firsts) {
            for (const auto &[name, value] : f->counts)
                mean[name] += value / firsts.size();
        }
        return mean;
    }

    void
    printDigests() const
    {
        std::printf("digests:");
        for (const auto &f : firsts)
            std::printf(" %016llx",
                        static_cast<unsigned long long>(f->digest));
        std::printf("\n");
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::vector<std::optional<Outcome>> firsts;
};

/** One untraced run: set-up, run, check. */
struct Timed
{
    std::vector<double> setupS;  ///< this run's set-up, then extras
    double runS;
    firefly::Cycle cycles;
};

/** Host seconds from FireflyConfig to a machine ready to run. */
double
setupOnly(const Args &args, std::size_t run)
{
    const double t0 = threadCpuSeconds();
    const Rig rig(*args.workload, args.jobSeed(run));
    return threadCpuSeconds() - t0;
}

Timed
timedRun(const Args &args, std::size_t run, Gate &gate)
{
    Timed timed;
    {
        const double t0 = threadCpuSeconds();
        Rig rig(*args.workload, args.jobSeed(run));
        const double t1 = threadCpuSeconds();
        rig.run();
        const double t2 = threadCpuSeconds();
        const Outcome out = rig.finish();
        gate.record("timed", run, out);
        timed.setupS.push_back(t1 - t0);
        timed.runS = t2 - t1;
        timed.cycles = out.cycles;
    }
    for (unsigned i = 0; i < kExtraSetups; ++i)
        timed.setupS.push_back(setupOnly(args, run));
    return timed;
}

/** A warm-up run (checked, not timed), then untraced runs for
 *  `seconds` of wall time, and until every job has run. */
std::vector<Timed>
timedRuns(const Args &args, double seconds, Gate &gate)
{
    timedRun(args, 0, gate);
    std::vector<Timed> runs;
    const double deadline = wallSeconds() + seconds;
    while (runs.size() + 1 < args.workload->jobs ||
           wallSeconds() < deadline)
        runs.push_back(timedRun(args, runs.size() + 1, gate));
    return runs;
}

std::map<std::string, double>
endToEnd(const Args &args, Gate &gate)
{
    const std::vector<Timed> runs = timedRuns(args, args.seconds, gate);
    std::vector<double> rates, setups;
    for (const Timed &t : runs) {
        rates.push_back(t.cycles / t.runS / 1e6);
        setups.insert(setups.end(), t.setupS.begin(), t.setupS.end());
    }

    const double ref = referenceLoad(*args.workload);
    const double simLoad = gate.meanLoad();
    const double error = std::fabs(simLoad - ref) / ref * 100.0;

    std::printf("runs: %zu timed + 1 warm-up over %u jobs, %zu set-ups\n",
                runs.size(), args.workload->jobs, setups.size());
    gate.printDigests();
    std::printf("per-run Mcycles/s: median %.4f, lower quartile %.4f, "
                "spread %.4f\n",
                median(rates), quantile(rates, 0.25), spread(rates));
    std::printf("model: simulated L = %.4f, reference L = %.4f (%s), "
                "error %.2f%%\n",
                simLoad, ref, args.workload->reference, error);

    return {
        // The lower quartile, not the median: on a shared host the noise
        // is bursts of extra speed, and the lower quartile ignores them.
        {"sim_mcycles_per_s", quantile(rates, 0.25)},
        {"setup_s", median(setups)},
        {"host_rss_mib", peakRssMib()},
        {"model_error_pct", error},
    };
}

std::map<std::string, double>
perLayer(const Args &args, Gate &gate)
{
    // Untraced and traced runs of the same job alternate, so both see
    // the same host.  The untraced runs give the counts (every job runs
    // at least once) and the baseline for the tracing overhead.
    timedRun(args, 0, gate);
    Spans spans;
    std::vector<double> overheads;
    double cpuSum = 0, wallSum = 0;
    const double deadline =
        wallSeconds() + args.seconds * kRunsShare;
    for (std::size_t run = 1; run < args.workload->jobs ||
                              overheads.size() < kMinTracedRuns ||
                              wallSeconds() < deadline;
         ++run) {
        const Timed untraced = timedRun(args, run, gate);
        Spans traced;
        Rig rig(*args.workload, args.jobSeed(run), &traced);
        const double c0 = threadCpuSeconds(), w0 = wallSeconds();
        rig.runSliced();
        const double c1 = threadCpuSeconds(), w1 = wallSeconds();
        gate.record("traced", run, rig.finish());
        overheads.push_back((c1 - c0) / untraced.runS - 1.0);
        cpuSum += c1 - c0;
        wallSum += w1 - w0;
        spans.add(traced);
    }
    std::map<std::string, double> m = gate.meanCounts();

    // Each span adds about two clock reads: one inside the span, one
    // outside it.  Take both out of the split.
    const double c = emptySpanNs();
    const auto self = [c](std::uint64_t ns, std::uint64_t calls) {
        return std::max(0.0, ns - calls * c);
    };
    const double gen = self(spans.genNs, spans.genCalls);
    const double hook = self(spans.hookNs, spans.hookCalls);
    const double bus = self(spans.busNs, spans.busCalls);
    const double total =
        std::max(1.0, spans.sliceNs - 2.0 * spans.spanCount() * c);
    const double engine = std::max(0.0, total - gen - hook - bus);
    const auto per = [](double ns, std::uint64_t n) {
        return n ? ns / n : 0.0;
    };

    m["sim.slice_us_p50"] = median(spans.sliceUs);
    m["sim.slice_us_p99"] = quantile(spans.sliceUs, 0.99);
    m["sim.slice_samples"] = spans.sliceUs.size();
    m["sim.engine_share"] = engine / total;
    m["sim.host_cpu_util"] = cpuSum / wallSum;
    m["cpu.gen_ns_per_step"] = per(gen, spans.genSteps);
    m["cpu.gen_share"] = gen / total;
    m["check.hook_ns_per_load"] = per(hook, spans.hookLoads);
    m["check.bus_ns_per_txn"] = per(bus, spans.busTxns);
    m["check.share"] = (hook + bus) / total;
    m["trace.overhead_frac"] = median(overheads);
    std::printf("traced: %zu runs, each after an untraced run of its job; "
                "empty span %.1f ns\n",
                overheads.size(), c);
    gate.printDigests();

    const auto units = runUnits(args.seed, args.seconds * kUnitsShare);
    m.insert(units.begin(), units.end());
    m["fail_pct"] = 100.0 * gate.failed / gate.attempted;
    return m;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    std::printf("perfbench: workload %s, seed %llu, %.3g s, trace %d\n",
                args.workload->name,
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("host: %s, nproc %u\n", hostCpuModel().c_str(),
                std::thread::hardware_concurrency());

    Gate gate(args.workload->jobs);
    const Scope scope = args.trace ? Scope::PerLayer : Scope::EndToEnd;
    const auto values = args.trace ? perLayer(args, gate)
                                   : endToEnd(args, gate);
    for (const MetricSpec &m : metricSpecs()) {
        if (m.scope == scope)
            std::printf("  %-28s %14.6g %s\n", m.name, values.at(m.name),
                        m.unit);
    }
    std::printf("fail_pct %.4g (%llu of %llu runs)\n",
                100.0 * gate.failed / gate.attempted,
                static_cast<unsigned long long>(gate.failed),
                static_cast<unsigned long long>(gate.attempted));
    std::printf("%s\n",
                resultLine(scope, gate.attempted, gate.failed, values)
                    .c_str());
    return 0;
}
