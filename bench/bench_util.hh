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
#include <atomic>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

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
 * Deterministic --stats-json arbitration.  "Last export wins" is
 * only well defined when the export order is; under --jobs N the
 * completion order is whatever the scheduler produced.  So every
 * export carries a sequence number equal to its position in the
 * *serial* execution order - plain exports draw from a global
 * counter, sweep points are pre-assigned base+index by runSweep() -
 * and the highest sequence seen is buffered and written out once at
 * the end of runBenchMain().  jobs=1 and jobs=N therefore produce
 * byte-identical files.
 */
inline std::atomic<std::uint64_t> exportSeqCounter{0};
inline thread_local std::uint64_t pinnedExportSeq = 0;
inline thread_local bool exportSeqPinned = false;

struct ExportBuffer
{
    std::mutex mutex;
    bool pending = false;        // guarded by mutex
    std::uint64_t seq = 0;       // guarded by mutex
    std::string json;            // guarded by mutex
};

inline ExportBuffer &
exportBuffer()
{
    static ExportBuffer buffer;
    return buffer;
}

/** Pins this thread's export sequence for one sweep point. */
class ScopedExportSeq
{
  public:
    explicit ScopedExportSeq(std::uint64_t seq)
    {
        pinnedExportSeq = seq;
        exportSeqPinned = true;
    }

    ~ScopedExportSeq() { exportSeqPinned = false; }

    ScopedExportSeq(const ScopedExportSeq &) = delete;
    ScopedExportSeq &operator=(const ScopedExportSeq &) = delete;
};

/** Write the winning export to the --stats-json file, if any. */
inline void
flushExportedStats()
{
    ExportBuffer &buffer = exportBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    if (!buffer.pending)
        return;
    const std::string &path = obsOptions().statsJsonPath;
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot write stats JSON to %s\n",
                     path.c_str());
        return;
    }
    os << buffer.json;
}

} // namespace detail

/**
 * Export `root`'s full stat tree to the --stats-json file.  A no-op
 * when the option was not given.  Benches call this on the system
 * whose numbers headline the experiment; if several systems are
 * simulated the one last in serial execution order lands in the file
 * (see detail::ExportBuffer), written when runBenchMain() finishes.
 */
inline void
exportStats(const StatGroup &root)
{
    if (obsOptions().statsJsonPath.empty())
        return;
    std::ostringstream os;
    root.dumpJson(os);
    const std::uint64_t seq = detail::exportSeqPinned
        ? detail::pinnedExportSeq
        : detail::exportSeqCounter.fetch_add(1);

    detail::ExportBuffer &buffer = detail::exportBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    if (!buffer.pending || seq >= buffer.seq) {
        buffer.pending = true;
        buffer.seq = seq;
        buffer.json = os.str();
    }
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
 * results in input order (harness::runSweep).  Also pre-assigns each
 * point's exportStats() sequence number so the headline stats file
 * is independent of --jobs.
 */
template <typename Config, typename Fn>
auto
runSweep(const std::vector<Config> &configs, Fn fn)
{
    const std::uint64_t base =
        detail::exportSeqCounter.fetch_add(configs.size());
    return harness::runSweep(
        configs,
        [&](const Config &config, std::size_t index) {
            detail::ScopedExportSeq seq(base + index);
            return harness::detail::invokePoint(fn, config, index);
        },
        effectiveJobs());
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
                 "  --jobs=N            run sweep points on N worker threads\n",
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

/** A "--name=N" flag that stores a count in `out`: a whole number in
 *  [1, UINT_MAX] (parseUnsigned), so "-1" or "0" is a usage error. */
inline ExtraFlag
countFlag(const char *prefix, const char *help, unsigned &out)
{
    return {prefix, help, [&out](const std::string &value) {
                const auto n = parseUnsigned(value);
                if (!n || *n == 0 || *n > UINT_MAX)
                    return false;
                out = static_cast<unsigned>(*n);
                return true;
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
        } else if (auto v = valueOf(arg, "--stats-json=")) {
            opts.statsJsonPath = *v;
        } else if (auto v = valueOf(arg, "--trace-out=")) {
            opts.traceOutPath = *v;
        } else if (auto v = valueOf(arg, "--debug-flags=")) {
            opts.debugFlags = *v;
        } else if (auto v = valueOf(arg, "--jobs=")) {
            const auto n = parseUnsigned(*v);
            if (!n || *n == 0 || *n > 1024) {
                std::fprintf(stderr,
                             "%s: --jobs needs an integer in [1, 1024], "
                             "got '%s'\n",
                             argv[0], v->c_str());
                printUsage(argv[0], extras);
                return 2;
            }
            opts.jobs = static_cast<unsigned>(*n);
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
