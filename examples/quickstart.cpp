/**
 * @file
 * Quickstart: build the standard five-processor MicroVAX Firefly,
 * run the calibrated workload for a tenth of a simulated second, and
 * print the numbers the paper leads with - per-processor speed, bus
 * load, miss rate.
 *
 * Usage: quickstart [processors] [--topology]
 */

#include <cstdio>
#include <cstring>

#include "bench_util.hh"
#include "firefly/system.hh"

using namespace firefly;

int
main(int argc, char **argv)
{
    unsigned processors = 5;
    bool topology_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--topology") == 0) {
            topology_only = true;
        } else if (auto n = bench::parseCount(
                       argv[i], FireflyConfig::maxProcessors)) {
            processors = *n;
        } else {
            std::fprintf(stderr,
                         "usage: %s [processors] [--topology]\n"
                         "  processors: 1-%u (default 5)\n",
                         argv[0], FireflyConfig::maxProcessors);
            return 2;
        }
    }

    // 1. Configure and build the machine (paper Figure 1).
    FireflySystem sys(FireflyConfig::microVax(processors));
    std::printf("%s\n", sys.topologyArt().c_str());
    if (topology_only)
        return 0;

    // 2. Attach a workload: the synthetic VAX reference stream,
    //    calibrated to the paper's M~0.2, D~0.25, S=0.1.
    sys.attachSyntheticWorkload(SyntheticConfig{});

    // 3. Run a tenth of a simulated second.
    std::printf("running 0.1 simulated seconds...\n\n");
    sys.run(0.1);

    // 4. Read the results off the machine.
    std::printf("%-34s %12s\n", "", "value");
    for (unsigned i = 0; i < sys.processorCount(); ++i) {
        std::printf("cpu%u: %8.0fK instr/s   TPI %.2f   miss rate "
                    "%.3f\n",
                    i, sys.cpu(i).instructions() / sys.seconds() / 1e3,
                    sys.cpu(i).tpi(),
                    sys.cache(i).stats().get("miss_rate"));
    }
    std::printf("\nMBus load:            %.2f   (paper: ~0.4 on the "
                "standard machine)\n", sys.busLoad());
    const double nowait = 1.0 / (microVaxBaseTpi * 200e-9);
    double total_ips = 0;
    for (unsigned i = 0; i < sys.processorCount(); ++i)
        total_ips += sys.cpu(i).instructions() / sys.seconds();
    std::printf("Total performance:    %.2fx a no-wait-state "
                "processor (paper: \"somewhat more than four times\" "
                "with five CPUs)\n", total_ips / nowait);
    std::printf("Refs by all CPUs:     %.0fK/s\n",
                sys.totalCpuRefs() / sys.seconds() / 1e3);
    return 0;
}
