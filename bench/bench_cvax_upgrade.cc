/**
 * @file
 * Experiment X5: the CVAX upgrade (second-generation Firefly).
 *
 * Claims to reproduce (Section 5.3 and Section 5):
 *  - "the upgrade has improved execution speeds by factors of 2.0 to
 *    2.5" (less than the chip's raw 2.5-3.2x because the Firefly
 *    kept the original MBus and did not cache data on chip);
 *  - "the combination of a faster processor and larger cache results
 *    in approximately the same bus load per processor";
 *  - the on-chip cache is configured instruction-only "to simplify
 *    the problem of maintaining memory coherence" - enabling data
 *    caching without snooping would have served stale data (counted
 *    here as stale incidents).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "firefly/system.hh"

using namespace firefly;

namespace
{

struct Result
{
    double instrPerSec;
    double busLoadPerCpu;
    double missRate;
    double onchipStale;
};

Result
run(MachineVersion version, unsigned cpus,
    OnChipCache::DataMode mode = OnChipCache::DataMode::InstructionsOnly,
    bool onchip_enabled = true, double seconds = 0.1)
{
    FireflyConfig cfg = version == MachineVersion::MicroVax
        ? FireflyConfig::microVax(cpus)
        : FireflyConfig::cvax(cpus);
    if (version == MachineVersion::Cvax) {
        cfg.onChipCacheEnabled = onchip_enabled;
        cfg.onChipMode = mode;
    }
    FireflySystem sys(bench::checkedConfig(cfg));

    SyntheticConfig workload;
    if (version == MachineVersion::Cvax) {
        // CVAX chip: ~8.5 ticks of 100 ns per instruction, of which
        // the same 2.13 refs occupy 2 ticks each.
        workload.computeTicksPerInstr = cvaxBaseTpi - 2.13 * hitTicks;
    }
    sys.attachSyntheticWorkload(workload);
    sys.run(seconds);
    bench::exportStats(sys.stats());

    double instrs = 0, miss = 0, stale = 0;
    for (unsigned i = 0; i < cpus; ++i) {
        instrs += static_cast<double>(sys.cpu(i).instructions());
        miss += sys.cache(i).stats().get("miss_rate");
        if (sys.onChip(i))
            stale += static_cast<double>(
                sys.onChip(i)->staleIncidents.value());
    }
    return {instrs / seconds, sys.busLoad() / cpus, miss / cpus,
            stale / seconds / 1e3};
}

void
experiment()
{
    bench::banner("X5", "MicroVAX -> CVAX upgrade");
    std::printf("Same calibrated workload on both generations.\n\n");
    std::printf("%-26s %12s %14s %8s\n", "machine", "MIPS (total)",
                "bus load/CPU", "M");
    bench::rule();

    // One independent simulation per point, --jobs at a time.
    struct Point
    {
        MachineVersion version;
        unsigned cpus;
        OnChipCache::DataMode mode =
            OnChipCache::DataMode::InstructionsOnly;
        bool onchipEnabled = true;
    };
    auto sweep = [](const std::vector<Point> &points) {
        return bench::runSweep(points, [](const Point &p) {
            return run(p.version, p.cpus, p.mode, p.onchipEnabled);
        });
    };

    std::vector<Point> generations;
    for (unsigned cpus : {1u, 5u}) {
        generations.push_back({MachineVersion::MicroVax, cpus});
        generations.push_back({MachineVersion::Cvax, cpus});
    }
    const auto genResults = sweep(generations);
    for (std::size_t i = 0; i < generations.size(); i += 2) {
        const unsigned cpus = generations[i].cpus;
        const auto &mv = genResults[i];
        const auto &cv = genResults[i + 1];
        std::printf("%u-CPU MicroVAX (16KB $)    %12.2f %14.3f %8.3f\n",
                    cpus, mv.instrPerSec / 1e6, mv.busLoadPerCpu,
                    mv.missRate);
        std::printf("%u-CPU CVAX     (64KB $)    %12.2f %14.3f %8.3f\n",
                    cpus, cv.instrPerSec / 1e6, cv.busLoadPerCpu,
                    cv.missRate);
        std::printf("  speedup: %.2fx  (paper: 2.0-2.5x)\n",
                    cv.instrPerSec / mv.instrPerSec);
        std::printf("  bus load per CPU: %.3f -> %.3f  (paper: "
                    "\"approximately the same\")\n\n",
                    mv.busLoadPerCpu, cv.busLoadPerCpu);
    }

    bench::rule();
    std::printf("On-chip cache configuration (5-CPU CVAX):\n\n");
    const auto onchip = sweep({
        {MachineVersion::Cvax, 5,
         OnChipCache::DataMode::InstructionsOnly},
        {MachineVersion::Cvax, 5,
         OnChipCache::DataMode::InstructionsAndData},
        {MachineVersion::Cvax, 5,
         OnChipCache::DataMode::InstructionsOnly, false},
    });
    const auto &ionly = onchip[0];
    const auto &idata = onchip[1];
    const auto &none = onchip[2];
    std::printf("%-28s %12s %20s\n", "on-chip mode", "MIPS",
                "stale hits (K/s)");
    std::printf("%-28s %12.2f %20s\n", "disabled",
                none.instrPerSec / 1e6, "-");
    std::printf("%-28s %12.2f %20.1f\n", "instructions only (real HW)",
                ionly.instrPerSec / 1e6, ionly.onchipStale);
    std::printf("%-28s %12.2f %20.1f\n", "instructions + data",
                idata.instrPerSec / 1e6, idata.onchipStale);
    std::printf(
        "\nCaching data on chip is faster but, with no on-chip\n"
        "snooping, every stale hit would have returned wrong data -\n"
        "the coherence problem the designers avoided by caching\n"
        "instructions only.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    return firefly::bench::runBenchMain(argc, argv, experiment);
}
