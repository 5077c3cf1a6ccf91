/**
 * @file
 * Experiment X6: I/O DMA and main-memory bandwidth.
 *
 * "When fully loaded, the QBus consumes about 30% of the main memory
 * bandwidth.  The average I/O load is much lower."  We saturate the
 * QBus with device DMA (Ethernet receive + disk streams) while the
 * processors run the calibrated workload, and report how much MBus
 * bandwidth the DMA takes and what it costs the processors.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "firefly/system.hh"
#include "io/disk.hh"
#include "io/ethernet.hh"

using namespace firefly;

namespace
{

struct Result
{
    double busLoad;
    double dmaShareOfBus;   ///< fraction of bus ops that are DMA
    double cpuMips;
    double dmaMBps;
};

Result
run(bool saturate_io, unsigned cpus = 4, double seconds = 0.1)
{
    FireflySystem sys(
        bench::checkedConfig(FireflyConfig::microVax(cpus)));
    sys.attachSyntheticWorkload(SyntheticConfig{});

    QBus qbus(sys.simulator(), sys.ioCache(),
              sys.config().ioAddressLimit());
    qbus.identityMap();
    EthernetController nic(sys.simulator(), qbus, "net0");

    // Saturation: a firehose of back-to-back received packets DMAed
    // into a ring of buffers, forever.
    std::function<void()> inject = [&] {
        if (!saturate_io)
            return;
        static unsigned ring = 0;
        const Addr buf = 0x0030'0000 + (ring++ % 8) * 2048;
        nic.addReceiveBuffer(buf, 2048);
        nic.injectFromWire(std::vector<Word>(375, 0x55aa55aa), 1500);
        // Next packet as soon as the wire could deliver one.
        sys.simulator().events().schedule(
            sys.simulator().now() + 1200, [&] { inject(); });
    };
    if (saturate_io)
        inject();

    sys.run(seconds);
    bench::exportStats(sys.stats());

    double instrs = 0;
    for (unsigned i = 0; i < cpus; ++i)
        instrs += static_cast<double>(sys.cpu(i).instructions());

    const double dma_ops = sys.bus().stats().get("dma_reads") +
                           sys.bus().stats().get("dma_writes");
    const double all_ops = sys.bus().stats().get("reads") +
                           sys.bus().stats().get("writes");
    const double dma_bytes =
        (qbus.engine().wordsRead.value() +
         qbus.engine().wordsWritten.value()) * 4.0;
    return {sys.busLoad(), all_ops > 0 ? dma_ops / all_ops : 0.0,
            instrs / seconds / 1e6, dma_bytes / seconds / 1e6};
}

void
experiment()
{
    bench::banner("X6", "QBus DMA vs main-memory bandwidth");

    const auto quiet = run(false);
    const auto loaded = run(true);

    std::printf("\n4-CPU machine, calibrated workload:\n\n");
    std::printf("%-28s %10s %10s\n", "", "idle I/O", "QBus full");
    bench::rule();
    std::printf("%-28s %10.2f %10.2f\n", "MBus load", quiet.busLoad,
                loaded.busLoad);
    std::printf("%-28s %10.2f %10.2f\n", "DMA share of bus ops",
                quiet.dmaShareOfBus, loaded.dmaShareOfBus);
    std::printf("%-28s %10.2f %10.2f\n", "DMA throughput (MB/s)",
                quiet.dmaMBps, loaded.dmaMBps);
    std::printf("%-28s %10.2f %10.2f\n", "CPU throughput (MIPS)",
                quiet.cpuMips, loaded.cpuMips);
    bench::rule();

    // A fully loaded QBus alone on an otherwise idle machine: the
    // cleanest version of the 30% claim.
    {
        FireflySystem sys(
            bench::checkedConfig(FireflyConfig::microVax(1)));
        QBus qbus(sys.simulator(), sys.ioCache(),
                  sys.config().ioAddressLimit());
        qbus.identityMap();
        // Stream DMA writes continuously (writes always use the bus).
        std::function<void()> feed = [&] {
            qbus.engine().writeWords(
                0x0030'0000, std::vector<Word>(256, 1),
                [&](IoStatus) { feed(); });
        };
        feed();
        sys.simulator().run(secondsToCycles(0.05));
        std::printf(
            "Fully loaded QBus on an idle machine: MBus load %.2f\n"
            "  (paper: \"the QBus consumes about 30%% of the main "
            "memory bandwidth\")\n",
            sys.bus().load());
    }
    std::printf("CPU slowdown under full I/O load: %.1f%%  (the "
                "\"average I/O load is much lower\" in practice)\n",
                (1.0 - loaded.cpuMips / quiet.cpuMips) * 100.0);
}

} // namespace

int
main(int argc, char **argv)
{
    return firefly::bench::runBenchMain(argc, argv, experiment);
}
