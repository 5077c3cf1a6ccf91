/**
 * @file
 * Shared helpers for the experiment regeneration binaries.
 *
 * Every binary under bench/ regenerates one table or figure of the
 * paper (see DESIGN.md's experiment index): it prints the paper's
 * numbers next to the model's/simulator's, so the shape comparison is
 * immediate.  The simulator's own speed is measured by
 * bench/firefly_perf and by perfbench/, not here.
 *
 * Options, understood by every bench binary:
 *
 *   --stats-json=FILE    write the headline system's full StatGroup
 *                        tree as JSON (StatGroup::dumpJson)
 *   --trace-out=FILE     record a Chrome trace-event JSON file of the
 *                        whole run (load it at ui.perfetto.dev)
 *   --debug-flags=A,B    print these trace categories (MBus, Cache,
 *                        Cpu, Dma, Sched, Rpc, Check, Fault) to
 *                        stderr
 *   --jobs=N             run independent sweep points on N worker
 *                        threads (default 1 = today's serial loop)
 *   --check              run every simulated machine under the
 *                        coherence checker (checkedConfig); a
 *                        violation aborts with its diagnostic, and
 *                        the printed numbers do not change
 *   --no-fast-forward    tick every component of every simulated
 *                        machine every cycle (checkedConfig): the
 *                        reference path for due-cycle gating and
 *                        idle fast-forward, with identical results
 *
 * Unrecognized arguments are an error (usage + nonzero exit), so a
 * typo like "--trace-out foo", an empty "--stats-json=" or an unknown
 * category like "--debug-flags=Mbus" cannot silently produce no
 * output.
 *
 * runBenchMain() parses these, attaches the sinks around the
 * experiment, and flushes/finalises them afterwards.  Experiments
 * honour --stats-json by calling bench::exportStats(sys.stats()) on
 * their headline system (the last call wins - under --jobs N "last"
 * means the highest sweep point in input order, so the exported file
 * is byte-identical however many workers ran the sweep).
 */

#ifndef FIREFLY_BENCH_BENCH_UTIL_HH
#define FIREFLY_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "firefly/config.hh"
#include "harness/sweep.hh"
#include "obs/chrome_trace.hh"
#include "obs/text_trace.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace firefly::bench
{

/** Command-line options shared by every bench binary. */
struct ObsOptions
{
    std::string statsJsonPath;  ///< --stats-json=FILE
    std::string traceOutPath;   ///< --trace-out=FILE
    std::string debugFlags;     ///< --debug-flags=MBus,Cache,...
    unsigned jobs = 1;          ///< --jobs=N
    bool check = false;         ///< --check
    bool noFastForward = false; ///< --no-fast-forward
    /** Text-sink categories: --debug-flags split at its commas. */
    std::vector<std::string> textFlags;

    /** True if any observability output was requested. */
    bool
    observing() const
    {
        return !statsJsonPath.empty() || !traceOutPath.empty() ||
               !debugFlags.empty();
    }
};

inline ObsOptions &
obsOptions()
{
    static ObsOptions opts;
    return opts;
}

namespace detail
{

/**
 * This thread's last exportStats() JSON.  A sweep point hands its
 * thread's slot back with its result, and runSweep() folds the slots
 * into the calling thread's in input order, so the slot
 * runBenchMain() writes out holds the last export in serial order
 * however many threads ran the sweeps.
 */
inline thread_local std::optional<std::string> exportedJson;

/** Write the winning export to the --stats-json file, if any. */
inline void
flushExportedStats()
{
    const auto json = std::exchange(exportedJson, std::nullopt);
    if (!json)
        return;
    const std::string &path = obsOptions().statsJsonPath;
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot write stats JSON to %s\n",
                     path.c_str());
        return;
    }
    os << *json;
}

} // namespace detail

/**
 * Export `root`'s full stat tree to the --stats-json file.  A no-op
 * when the option was not given.  Benches call this on the system
 * whose numbers headline the experiment; if several systems are
 * simulated the one last in serial execution order lands in the file
 * (see detail::exportedJson), written when runBenchMain() finishes.
 */
inline void
exportStats(const StatGroup &root)
{
    if (obsOptions().statsJsonPath.empty())
        return;
    std::ostringstream os;
    root.dumpJson(os);
    detail::exportedJson = os.str();
}

/**
 * The worker count sweeps actually run with.  Trace sinks are
 * single-threaded observers attached to the main thread (workers
 * start with none - obs/trace.hh), so when tracing is on, sweeps
 * stay serial; byte-identical numbers either way, just slower.
 */
inline unsigned
effectiveJobs()
{
    const ObsOptions &opts = obsOptions();
    if (opts.jobs <= 1)
        return 1;
    if (!opts.traceOutPath.empty() || !opts.textFlags.empty()) {
        static std::once_flag warned;
        std::call_once(warned, [] {
            warn("tracing observes one thread; --jobs forced to 1");
        });
        return 1;
    }
    return opts.jobs;
}

/**
 * Run a sweep of independent experiment points, --jobs at a time,
 * results in input order (harness::runSweep).  Each point hands back
 * the export it made, if any, on the thread that ran it; folding
 * them in input order onto this thread's export makes the headline
 * stats file independent of --jobs.
 */
template <typename Config, typename Fn>
auto
runSweep(const std::vector<Config> &configs, Fn fn)
{
    auto last = std::exchange(detail::exportedJson, std::nullopt);
    auto points = harness::runSweep(
        configs,
        [&fn](const Config &config) {
            auto result = fn(config);
            return std::pair(std::move(result),
                             std::exchange(detail::exportedJson,
                                           std::nullopt));
        },
        effectiveJobs());
    std::vector<decltype(fn(configs[0]))> results;
    results.reserve(points.size());
    for (auto &[result, json] : points) {
        if (json)
            last = std::move(json);
        results.push_back(std::move(result));
    }
    detail::exportedJson = std::move(last);
    return results;
}

/**
 * RAII bundle of the sinks requested on the command line, attached
 * to the main thread for its lifetime.  Built once by runBenchMain
 * around the experiment so a sweep of several simulated machines
 * lands in one concatenated trace file; sweeps stay serial while
 * tracing (see effectiveJobs) so every machine runs under the sink.
 */
class Observation
{
  public:
    Observation()
    {
        const ObsOptions &opts = obsOptions();
        if (!opts.traceOutPath.empty()) {
            chrome = std::make_unique<obs::ChromeTraceSink>(
                opts.traceOutPath);
            tee.add(chrome.get());
        }
        if (!opts.textFlags.empty()) {
            text = std::make_unique<obs::TextTraceSink>(opts.textFlags);
            tee.add(text.get());
        }
        if (chrome || text)
            scoped.emplace(&tee);
    }

  private:
    std::unique_ptr<obs::ChromeTraceSink> chrome;
    std::unique_ptr<obs::TextTraceSink> text;
    obs::TeeSink tee;
    std::optional<obs::ScopedTraceSink> scoped;
};

/** `cfg`, with the coherence checker on if --check was given and
 *  fast-forward off if --no-fast-forward was.  Every bench that
 *  builds a FireflySystem - the rig-built ones (check::Rig) too -
 *  passes its config through here, or turns the checker on itself
 *  (firefly_faults). */
inline FireflyConfig
checkedConfig(FireflyConfig cfg)
{
    if (obsOptions().check)
        cfg.coherenceCheck = true;
    if (obsOptions().noFastForward)
        cfg.fastForward = false;
    return cfg;
}

/** Print the experiment banner. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::printf("==============================================================\n");
    std::printf("%s: %s\n", id.c_str(), title.c_str());
    std::printf("==============================================================\n");
}

/** Print a horizontal rule. */
inline void
rule()
{
    std::printf("--------------------------------------------------------------\n");
}

/**
 * An extra "--name=value" option one specific bench understands
 * (e.g. the fault-injection flags of firefly_faults/firefly_fuzz).
 * Benches that do not register a flag reject it like any other
 * unknown argument, so "--fault-rate=" on a fault-unaware bench is a
 * hard usage error, never silently ignored.
 */
struct ExtraFlag
{
    const char *prefix;  ///< "--fault-rate=" (trailing '=' included)
    const char *help;    ///< one-line description for --help
    /** Parses the value; return false to reject it (usage error). */
    std::function<bool(const std::string &value)> parse;
};

/** Print the option summary every bench binary shares. */
inline void
printUsage(const char *prog, const std::vector<ExtraFlag> &extras = {})
{
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "  --stats-json=FILE   write the headline stat tree as JSON\n"
                 "  --trace-out=FILE    record a Chrome trace-event JSON file\n"
                 "  --debug-flags=A,B   print trace categories to stderr\n"
                 "                      (MBus, Cache, Cpu, Dma, Sched, Rpc,\n"
                 "                      Check, Fault)\n"
                 "  --jobs=N            run sweep points on N worker threads\n"
                 "  --check             run under the coherence checker\n"
                 "  --no-fast-forward   tick every component every cycle\n"
                 "                      (same results, the reference path)\n",
                 prog);
    for (const ExtraFlag &flag : extras)
        std::fprintf(stderr, "  %-19s %s\n", flag.prefix, flag.help);
    std::fprintf(stderr,
                 "Fault-injection flags (--fault-rate=F, --fault-seed=N) "
                 "exist only on the\nfault-aware benches (firefly_faults, "
                 "firefly_fuzz); every other bench\nrejects them.\n");
}

/**
 * Parse all of `text` as an unsigned integer, decimal or 0x-prefixed
 * hex.  A sign, surrounding space, trailing text or a value past
 * 2^64 - 1 is rejected (nullopt), so "-1" never wraps to a huge count.
 */
inline std::optional<std::uint64_t>
parseUnsigned(const std::string &text)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(text.c_str(), &end, 0);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return n;
}

/**
 * Parse all of `text` as a finite non-negative decimal number ("0.05",
 * "1e-3").  A sign, surrounding space, trailing text, "nan" and "inf"
 * are rejected (nullopt).
 */
inline std::optional<double>
parseNumber(const std::string &text)
{
    if (text.empty() || (!std::isdigit(static_cast<unsigned char>(text[0])) &&
                         text[0] != '.'))
        return std::nullopt;
    char *end = nullptr;
    const double x = std::strtod(text.c_str(), &end);
    if (*end != '\0' || !std::isfinite(x))
        return std::nullopt;
    return x;
}

/** Parse all of `text` as a count in [1, max] (parseUnsigned), so
 *  "-1", "0", "4x" or an empty value is nullopt. */
inline std::optional<unsigned>
parseCount(const std::string &text, unsigned max = UINT_MAX)
{
    const auto n = parseUnsigned(text);
    if (!n || *n == 0 || *n > max)
        return std::nullopt;
    return static_cast<unsigned>(*n);
}

/** A "--name=N" flag that stores a count in `out` (parseCount), so
 *  "-1" or "0" is a usage error. */
inline ExtraFlag
countFlag(const char *prefix, const char *help, unsigned &out)
{
    return {prefix, help, [&out](const std::string &value) {
                const auto n = parseCount(value);
                if (n)
                    out = *n;
                return n.has_value();
            }};
}

/**
 * Parse the shared options into `opts`, rejecting
 * anything unrecognized.  Returns the exit code to stop with, or
 * nullopt to run the experiment.
 * `extras` registers bench-specific "--name=value" flags.
 */
inline std::optional<int>
parseOptions(ObsOptions &opts, int argc, char **argv,
             const std::vector<ExtraFlag> &extras = {})
{
    // Returns the value of "--name=value" or nullopt if `arg` is a
    // different option; an empty value is a hard usage error.
    auto valueOf = [&](const char *arg,
                       const char *prefix) -> std::optional<std::string> {
        const std::size_t len = std::strlen(prefix);
        if (std::strncmp(arg, prefix, len) != 0)
            return std::nullopt;
        std::string value = arg + len;
        if (value.empty()) {
            std::fprintf(stderr, "%s: option '%s' requires a value\n",
                         argv[0], arg);
            printUsage(argv[0], extras);
            std::exit(2);
        }
        return value;
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            printUsage(argv[0], extras);
            return 0;
        } else if (std::strcmp(arg, "--check") == 0) {
            opts.check = true;
        } else if (std::strcmp(arg, "--no-fast-forward") == 0) {
            opts.noFastForward = true;
        } else if (auto v = valueOf(arg, "--stats-json=")) {
            opts.statsJsonPath = *v;
        } else if (auto v = valueOf(arg, "--trace-out=")) {
            opts.traceOutPath = *v;
        } else if (auto v = valueOf(arg, "--debug-flags=")) {
            opts.debugFlags = *v;
        } else if (auto v = valueOf(arg, "--jobs=")) {
            const auto n = parseCount(*v, 1024);
            if (!n) {
                std::fprintf(stderr,
                             "%s: --jobs needs an integer in [1, 1024], "
                             "got '%s'\n",
                             argv[0], v->c_str());
                printUsage(argv[0], extras);
                return 2;
            }
            opts.jobs = *n;
        } else {
            bool matched = false;
            for (const ExtraFlag &flag : extras) {
                auto v = valueOf(arg, flag.prefix);
                if (!v)
                    continue;
                if (!flag.parse(*v)) {
                    std::fprintf(stderr,
                                 "%s: bad value for '%s': '%s'\n",
                                 argv[0], flag.prefix, v->c_str());
                    printUsage(argv[0], extras);
                    return 2;
                }
                matched = true;
                break;
            }
            if (!matched) {
                std::fprintf(stderr, "%s: unrecognized argument '%s'\n",
                             argv[0], arg);
                printUsage(argv[0], extras);
                return 2;
            }
        }
    }

    // A name that is no category would silently print nothing.
    opts.textFlags = obs::splitFlags(opts.debugFlags);
    for (const std::string &flag : opts.textFlags) {
        if (std::find(std::begin(obs::kCategories),
                      std::end(obs::kCategories),
                      flag) == std::end(obs::kCategories)) {
            std::fprintf(stderr, "%s: unknown debug flag '%s' in "
                         "--debug-flags\n",
                         argv[0], flag.c_str());
            printUsage(argv[0], extras);
            return 2;
        }
    }
    return std::nullopt;
}

/** Standard main body: parse the shared options and run the
 *  experiment under the requested sinks.  Returns the exit code. */
inline int
runBenchMain(int argc, char **argv, void (*experiment)(),
             const std::vector<ExtraFlag> &extras = {})
{
    if (auto status = parseOptions(obsOptions(), argc, argv, extras))
        return *status;
    {
        Observation observation;
        experiment();
    }
    detail::flushExportedStats();
    return 0;
}

} // namespace firefly::bench

#endif // FIREFLY_BENCH_BENCH_UTIL_HH
