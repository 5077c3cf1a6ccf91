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
 * failure reproduces exactly: rerun the printed "reproduce:" line.
 *
 *   --seeds=N        seeds per protocol x shape cell (8)
 *   --steps=N        references per run (2000)
 *   --base-seed=N    corpus base seed (0xF1EF7)
 *
 * --jobs=N parallelizes the sweep as usual.
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

unsigned gSeeds = 8;                  // --seeds=N
unsigned gSteps = 2000;               // --steps=N
std::uint64_t gBaseSeed = 0xF1EF7;    // --base-seed=N
std::optional<double> gFaultRate;     // --fault-rate=F
std::optional<std::uint64_t> gFaultSeed;  // --fault-seed=N

/** Arm the fault campaign on one corpus point, if requested. */
void
applyFaults(FuzzConfig &cfg)
{
    if (!gFaultRate)
        return;
    cfg.faults.enabled = true;
    cfg.faults.seed = gFaultSeed.value_or(gBaseSeed);
    cfg.faults.rates.busParity = *gFaultRate;
    cfg.faults.rates.eccSingle = *gFaultRate;
    cfg.faults.rates.deviceTimeout = *gFaultRate;
    // Unrecoverable faults surface as a catchable MachineCheck with
    // the reproduction banner, not an abort.
    cfg.faults.throwOnMachineCheck = true;
}

void
experiment()
{
    bench::banner("FUZZ", "Randomized coherence checking corpus");

    std::printf("base seed 0x%llx, %u seeds/cell, %u refs/run\n",
                static_cast<unsigned long long>(gBaseSeed), gSeeds,
                gSteps);
    if (gFaultRate) {
        std::printf("fault injection armed: rate %g, fault seed "
                    "0x%llx\n",
                    *gFaultRate,
                    static_cast<unsigned long long>(
                        gFaultSeed.value_or(gBaseSeed)));
    }
    std::printf("\n");

    std::vector<FuzzConfig> corpus;
    for (unsigned p = 0; p < std::size(kProtocols); ++p) {
        for (unsigned sh = 0; sh < std::size(kFuzzShapes); ++sh) {
            for (unsigned s = 0; s < gSeeds; ++s) {
                FuzzConfig cfg;
                cfg.protocol = kProtocols[p];
                cfg.seed = harness::pointSeed(gBaseSeed, p, sh, s);
                cfg.steps = gSteps;
                kFuzzShapes[sh].apply(cfg);
                applyFaults(cfg);
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
                     "\nreproduce: bench/firefly_fuzz --seeds=%u "
                     "--steps=%u --base-seed=0x%llx",
                     gSeeds, gSteps,
                     static_cast<unsigned long long>(gBaseSeed));
        if (gFaultRate) {
            std::fprintf(stderr, " --fault-rate=%g --fault-seed=0x%llx",
                         *gFaultRate,
                         static_cast<unsigned long long>(
                             gFaultSeed.value_or(gBaseSeed)));
        }
        std::fprintf(stderr, "\n");
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
            for (unsigned s = 0; s < gSeeds; ++s, ++at) {
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
    const unsigned diff_seeds = gSeeds < 4 ? gSeeds : 4;
    for (unsigned s = 0; s < diff_seeds; ++s) {
        std::vector<FuzzConfig> points;
        for (const ProtocolKind kind : kProtocols) {
            FuzzConfig cfg;
            cfg.protocol = kind;
            cfg.seed = harness::pointSeed(gBaseSeed, 900, s);
            cfg.steps = gSteps;
            cfg.recordLoads = true;
            applyFaults(cfg);
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
        bench::countFlag("--seeds=",
                         "seeds per protocol x shape cell (default 8)",
                         gSeeds),
        bench::countFlag("--steps=",
                         "references per fuzz run (default 2000)", gSteps),
        {"--base-seed=", "corpus base seed (default 0xF1EF7)",
         [](const std::string &value) {
             const auto n = bench::parseUnsigned(value);
             if (!n)
                 return false;
             gBaseSeed = *n;
             return true;
         }},
        {"--fault-rate=",
         "inject parity/ECC/device faults at per-draw rate F",
         [](const std::string &value) {
             const auto rate = bench::parseNumber(value);
             if (!rate || *rate > 1.0)
                 return false;
             gFaultRate = *rate;
             return true;
         }},
        {"--fault-seed=",
         "seed for the fault plan (default: corpus base seed)",
         [](const std::string &value) {
             const auto n = bench::parseUnsigned(value);
             if (!n)
                 return false;
             gFaultSeed = *n;
             return true;
         }},
    };
    return firefly::bench::runBenchMain(argc, argv, experiment, flags);
}
