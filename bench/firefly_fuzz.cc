/**
 * @file
 * Coherence fuzzing driver: the checker subsystem (src/check/) run as
 * a standalone corpus, not a table from the paper.  Every point is a
 * randomized multi-CPU reference stream executed against one of the
 * five protocols with the golden-memory oracle and invariant scanner
 * armed; any violation aborts the run with the checker's line-level
 * diagnostic and replay log.
 *
 * The corpus is fixed-seed (harness::pointSeed off one base), so a
 * failure reproduces exactly: rerun with FIREFLY_FUZZ_BASE_SEED set
 * to the printed base and the same shape/seed indices.
 *
 *   FIREFLY_FUZZ_SEEDS=N       seeds per protocol x shape cell (8)
 *   FIREFLY_FUZZ_STEPS=N       references per run (2000)
 *   FIREFLY_FUZZ_BASE_SEED=N   corpus base seed (0xF1EF7)
 *
 * (Environment variables, because the bench CLI rejects unknown
 * flags; --jobs=N parallelizes the sweep as usual.)
 *
 * Fault injection (src/fault/) composes with the corpus:
 *
 *   --fault-rate=F   inject bus parity, single-bit ECC, and device
 *                    timeout faults at per-draw rate F into every run
 *   --fault-seed=N   fault-plan seed (default: the corpus base seed)
 *
 * Faults change timing, never values, so the oracle and the
 * differential pass must stay clean with any rate.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "check/fuzz.hh"

using namespace firefly;
using check::FuzzConfig;
using check::FuzzResult;
using check::kFuzzShapes;
using check::runFuzz;

namespace
{

constexpr ProtocolKind kProtocols[] = {
    ProtocolKind::Firefly,       ProtocolKind::Dragon,
    ProtocolKind::Mesi,          ProtocolKind::Berkeley,
    ProtocolKind::WriteThroughInvalidate,
};

std::optional<double> gFaultRate;     // --fault-rate=F
std::optional<std::uint64_t> gFaultSeed;  // --fault-seed=N

/** Arm the fault campaign on one corpus point, if requested. */
void
applyFaults(FuzzConfig &cfg, std::uint64_t base)
{
    if (!gFaultRate)
        return;
    cfg.faults.enabled = true;
    cfg.faults.seed = gFaultSeed.value_or(base);
    cfg.faults.rates.busParity = *gFaultRate;
    cfg.faults.rates.eccSingle = *gFaultRate;
    cfg.faults.rates.deviceTimeout = *gFaultRate;
    // Unrecoverable faults surface as a catchable MachineCheck with
    // the reproduction banner, not an abort.
    cfg.faults.throwOnMachineCheck = true;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(value, &end, 0);
    if (*end != '\0') {
        std::fprintf(stderr, "%s: not a number: '%s'\n", name, value);
        std::exit(2);
    }
    return n;
}

void
experiment()
{
    bench::banner("FUZZ", "Randomized coherence checking corpus");

    const std::uint64_t base = envU64("FIREFLY_FUZZ_BASE_SEED", 0xF1EF7);
    const unsigned seeds =
        static_cast<unsigned>(envU64("FIREFLY_FUZZ_SEEDS", 8));
    const unsigned steps =
        static_cast<unsigned>(envU64("FIREFLY_FUZZ_STEPS", 2000));

    std::printf("base seed 0x%llx, %u seeds/cell, %u refs/run\n",
                static_cast<unsigned long long>(base), seeds, steps);
    if (gFaultRate) {
        std::printf("fault injection armed: rate %g, fault seed "
                    "0x%llx\n",
                    *gFaultRate,
                    static_cast<unsigned long long>(
                        gFaultSeed.value_or(base)));
    }
    std::printf("\n");

    std::vector<FuzzConfig> corpus;
    for (unsigned p = 0; p < std::size(kProtocols); ++p) {
        for (unsigned sh = 0; sh < std::size(kFuzzShapes); ++sh) {
            for (unsigned s = 0; s < seeds; ++s) {
                FuzzConfig cfg;
                cfg.protocol = kProtocols[p];
                cfg.seed = harness::pointSeed(base, p, sh, s);
                cfg.steps = steps;
                kFuzzShapes[sh].apply(cfg);
                applyFaults(cfg, base);
                corpus.push_back(cfg);
            }
        }
    }

    std::vector<FuzzResult> results;
    try {
        results = bench::runSweep(
            corpus, [](const FuzzConfig &cfg) { return runFuzz(cfg); });
    } catch (const std::exception &e) {
        std::fprintf(stderr, "\n%s\n", e.what());
        std::fprintf(stderr,
                     "\nreproduce: FIREFLY_FUZZ_BASE_SEED=0x%llx "
                     "FIREFLY_FUZZ_STEPS=%u %s\n",
                     static_cast<unsigned long long>(base), steps,
                     "bench/firefly_fuzz");
        std::exit(1);
    }

    // Per protocol x shape cell: how much checking actually happened.
    std::printf("%-10s %-26s %10s %12s %12s %10s\n", "protocol",
                "shape", "loads", "writes", "scans", "cycles");
    bench::rule();
    StatGroup summary("fuzz");
    Counter loads, writes, scans, runs;
    Counter parity, recovered, timeouts;
    summary.addCounter(&runs, "runs", "fuzz executions, all clean");
    summary.addCounter(&loads, "loads_checked",
                       "loads validated against the oracle");
    summary.addCounter(&writes, "writes_tracked",
                       "writes serialized into the oracle");
    summary.addCounter(&scans, "full_scans",
                       "whole-machine invariant scans");
    summary.addCounter(&parity, "parity_errors",
                       "bus parity NACKs injected");
    summary.addCounter(&recovered, "parity_recovered",
                       "NACKed transactions that recovered");
    summary.addCounter(&timeouts, "device_timeouts",
                       "DMA requests timed out");

    std::size_t at = 0;
    for (unsigned p = 0; p < std::size(kProtocols); ++p) {
        for (unsigned sh = 0; sh < std::size(kFuzzShapes); ++sh) {
            std::uint64_t cell_loads = 0, cell_writes = 0;
            std::uint64_t cell_scans = 0, cell_cycles = 0;
            for (unsigned s = 0; s < seeds; ++s, ++at) {
                const FuzzResult &r = results[at];
                cell_loads += r.loadsChecked;
                cell_writes += r.writesTracked;
                cell_scans += r.fullScans;
                cell_cycles += r.cycles;
                runs += 1;
                loads += r.loadsChecked;
                writes += r.writesTracked;
                scans += r.fullScans;
                parity += r.parityErrors;
                recovered += r.parityRecovered;
                timeouts += r.deviceTimeouts;
            }
            std::printf("%-10s %-26s %10llu %12llu %12llu %10llu\n",
                        toString(kProtocols[p]), kFuzzShapes[sh].name,
                        static_cast<unsigned long long>(cell_loads),
                        static_cast<unsigned long long>(cell_writes),
                        static_cast<unsigned long long>(cell_scans),
                        static_cast<unsigned long long>(cell_cycles));
        }
    }
    std::printf("\n%zu runs, zero violations.\n", results.size());
    if (gFaultRate) {
        std::printf("faults injected: %llu parity NACKs (%llu "
                    "recovered), %llu device timeouts\n",
                    static_cast<unsigned long long>(parity.value()),
                    static_cast<unsigned long long>(recovered.value()),
                    static_cast<unsigned long long>(timeouts.value()));
    }

    // Differential pass: the reference stream is a pure function of
    // the seed, so all five protocols must return identical values
    // for every load.  Protocols differ in cost, never in answers.
    std::printf("\nDifferential cross-protocol pass:\n");
    const unsigned diff_seeds = seeds < 4 ? seeds : 4;
    for (unsigned s = 0; s < diff_seeds; ++s) {
        std::vector<FuzzConfig> points;
        for (const ProtocolKind kind : kProtocols) {
            FuzzConfig cfg;
            cfg.protocol = kind;
            cfg.seed = harness::pointSeed(base, 900, s);
            cfg.steps = steps;
            cfg.recordLoads = true;
            applyFaults(cfg, base);
            points.push_back(cfg);
        }
        const auto runs_out = bench::runSweep(
            points, [](const FuzzConfig &cfg) { return runFuzz(cfg); });
        for (std::size_t i = 1; i < runs_out.size(); ++i) {
            if (runs_out[i].loadLog != runs_out[0].loadLog) {
                std::fprintf(stderr,
                             "DIVERGENCE: %s disagrees with %s on "
                             "seed index %u\n",
                             toString(points[i].protocol),
                             toString(points[0].protocol), s);
                std::exit(1);
            }
        }
        std::printf("  seed %u: %zu loads identical across %zu "
                    "protocols\n",
                    s, runs_out[0].loadLog.size(), runs_out.size());
    }

    bench::exportStats(summary);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<bench::ExtraFlag> flags = {
        {"--fault-rate=",
         "inject parity/ECC/device faults at per-draw rate F",
         [](const std::string &value) {
             char *end = nullptr;
             const double rate = std::strtod(value.c_str(), &end);
             if (*end != '\0' || rate < 0.0 || rate > 1.0)
                 return false;
             gFaultRate = rate;
             return true;
         }},
        {"--fault-seed=",
         "seed for the fault plan (default: corpus base seed)",
         [](const std::string &value) {
             char *end = nullptr;
             const unsigned long long n =
                 std::strtoull(value.c_str(), &end, 0);
             if (*end != '\0')
                 return false;
             gFaultSeed = n;
             return true;
         }},
    };
    return firefly::bench::runBenchMain(argc, argv, experiment, flags);
}
