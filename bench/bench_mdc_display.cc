/**
 * @file
 * Experiment X7: the display controller's performance claims.
 *
 * "The MDC can paint a large area of the screen at 16 megapixels per
 * second, and can paint approximately 20,000 10-point characters per
 * second."  Both are measured through the real work-queue protocol:
 * commands in main memory, polled and executed by the controller,
 * with every queue and character fetch a real DMA through the I/O
 * processor's cache.
 */

#include <cstdio>

#include "bench_util.hh"
#include "check/rig.hh"
#include "io/mdc.hh"

using namespace firefly;

namespace
{

constexpr Addr kQueueBase = 0x0010'0000;
constexpr Addr kInputBase = 0x0011'0000;
constexpr Addr kCharsBase = 0x0012'0000;

/** The I/O processor's cache on the bus, the QBus behind it, and
 *  the MDC on the QBus. */
struct Rig : check::Rig
{
    QBus qbus;
    Mdc mdc;

    Rig()
        : check::Rig(bench::checkedConfig(
              check::rigConfig(ProtocolKind::Firefly, 1))),
          qbus(sim, *caches[0], 16 * 1024 * 1024), mdc(sim, qbus, config())
    {
        qbus.identityMap();
        mdc.loadBuiltinFont();
        mdc.start();
    }

    static Mdc::Config
    config()
    {
        Mdc::Config cfg;
        cfg.queueBase = kQueueBase;
        cfg.inputBase = kInputBase;
        return cfg;
    }

    void
    enqueue(const WorkQueue::Command &command)
    {
        mdc.queue().enqueue(memory, command);
    }

    void
    drain()
    {
        while (!mdc.queue().drained(memory))
            sim.run(10000);
    }
};

void
experiment()
{
    bench::banner("X7", "MDC display controller performance");

    {
        Rig rig;
        const Cycle start = rig.sim.now();
        for (int i = 0; i < 8; ++i) {
            rig.enqueue(Mdc::encodeFill(0, 0, 1024, 768,
                                        i % 2 ? RasterOp::Clear
                                              : RasterOp::Set));
            rig.drain();
        }
        const double secs = (rig.sim.now() - start) * 100e-9;
        const double mpix = 8.0 * 1024 * 768 / secs / 1e6;
        std::printf("\nFull-screen fills: %.1f Mpixel/s  (paper: "
                    "\"16 megapixels per second\")\n", mpix);
    }

    {
        Rig rig;
        // 4096 characters through the font cache.
        for (unsigned i = 0; i < 128; ++i)
            rig.memory.write(kCharsBase + 4 * i,
                             0x41424344 + (i & 7));
        const Cycle start = rig.sim.now();
        for (int cmd = 0; cmd < 16; ++cmd) {
            rig.enqueue(Mdc::encodePaintChars(0, (cmd % 48) * 16, 256,
                                              kCharsBase));
            if (cmd % 4 == 3)
                rig.drain();
        }
        rig.drain();
        const double secs = (rig.sim.now() - start) * 100e-9;
        const double cps = 16.0 * 256 / secs;
        std::printf("Character painting: %.0f chars/s  (paper: "
                    "\"approximately 20,000 10-point characters per "
                    "second\")\n", cps);
    }

    {
        Rig rig;
        rig.sim.run(secondsToCycles(0.5));
        std::printf("Input deposits over 0.5 s: %llu  (paper: "
                    "\"sixty times per second\")\n",
                    static_cast<unsigned long long>(
                        rig.mdc.deposits.value()));
    }

    {
        // Scrolling (the window manager's bread and butter): copy
        // the screen up one text row, clear the bottom row.
        Rig rig;
        rig.enqueue(Mdc::encodeFill(0, 0, 1024, 768, RasterOp::Set));
        rig.drain();
        const Cycle start = rig.sim.now();
        rig.enqueue(Mdc::encodeCopyRect(0, 16, 0, 0, 1024, 752,
                                        RasterOp::Copy));
        rig.enqueue(Mdc::encodeFill(0, 752, 1024, 16,
                                    RasterOp::Clear));
        rig.drain();
        const double ms = (rig.sim.now() - start) * 100e-9 * 1e3;
        std::printf("Full-screen scroll by one text row: %.1f ms\n",
                    ms);
        bench::exportStats(rig.mdc.stats());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return firefly::bench::runBenchMain(argc, argv, experiment);
}
