/**
 * @file
 * Experiment T1: regenerate paper Table 1, "Firefly Estimated
 * Performance" - the Section 5.2 queueing model evaluated at
 * NP = 2..12 processors, printed against the paper's published row
 * values.
 */

#include <cstdio>
#include <vector>

#include "analytic/queueing_model.hh"
#include "bench_util.hh"

using namespace firefly;

namespace
{

void
experiment()
{
    bench::banner("Table 1", "Firefly Estimated Performance");
    std::printf("Model inputs (paper Section 5.2): TR=2.13 refs/instr "
                "(IR=.95 DR=.78 DW=.40),\nM=0.2, D=0.25, S=0.1, N=2 "
                "ticks/bus-op, base TPI=11.9\n\n");

    QueueingModel model;
    const auto rows = model.table1();

    // The paper's printed values (NP=2 bus load reconstructed).
    const double paper_l[] = {0.18, 0.33, 0.47, 0.60, 0.70, 0.78};
    const double paper_tpi[] = {13.4, 13.9, 14.5, 15.3, 16.3, 17.7};
    const double paper_rp[] = {0.89, 0.85, 0.82, 0.78, 0.72, 0.67};
    const double paper_tp[] = {1.77, 3.43, 4.93, 6.23, 7.29, 8.07};

    std::printf("%-28s", "NP (number of processors):");
    for (const auto &row : rows)
        std::printf("%8.0f", row.processors);
    std::printf("\n");
    bench::rule();

    auto line = [&](const char *name, auto get, const double *paper,
                    const char *fmt) {
        std::printf("%-28s", name);
        for (const auto &row : rows)
            std::printf(fmt, get(row));
        std::printf("\n%-28s", "    (paper)");
        for (int i = 0; i < 6; ++i)
            std::printf(fmt, paper[i]);
        std::printf("\n");
    };

    line("L (bus loading):",
         [](const PerformanceRow &r) { return r.busLoad; }, paper_l,
         "%8.2f");
    line("TPI (ticks per instr):",
         [](const PerformanceRow &r) { return r.tpi; }, paper_tpi,
         "%8.1f");
    line("RP (relative perf):",
         [](const PerformanceRow &r) { return r.relativePerf; },
         paper_rp, "%8.2f");
    line("TP (total perf):",
         [](const PerformanceRow &r) { return r.totalPerf; }, paper_tp,
         "%8.2f");

    std::printf("%-28s", "TP (closed-model check):");
    // The MVA evaluation is an independent computation per NP, so it
    // sweeps through the harness like the simulator benches do.
    std::vector<unsigned> nps;
    for (const auto &row : rows)
        nps.push_back(static_cast<unsigned>(row.processors));
    const auto closed = bench::runSweep(nps, [&model](unsigned np) {
        return model.closedRowForProcessors(np);
    });
    for (const auto &row : closed)
        std::printf("%8.2f", row.totalPerf);
    std::printf("\n  (MVA with the bounded request population the "
                "paper notes its open model ignores)\n");

    bench::rule();
    const auto five = model.rowForProcessors(5.0);
    std::printf("Standard 5-processor machine: L=%.2f, RP=%.2f, "
                "TP=%.2f\n  (paper: \"bus load ... 0.4\", \"about 85%%\","
                " \"somewhat more than four times\")\n",
                five.busLoad, five.relativePerf, five.totalPerf);
    std::printf("Saturation: marginal gain per processor drops below "
                "0.5 after NP=%.0f\n  (paper: \"the Firefly MBus can "
                "support perhaps nine processors\")\n",
                model.saturationProcessors());
}

} // namespace

int
main(int argc, char **argv)
{
    return firefly::bench::runBenchMain(argc, argv, experiment);
}
