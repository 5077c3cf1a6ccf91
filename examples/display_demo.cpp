/**
 * @file
 * Drive the monochrome display controller the way Trestle would:
 * enqueue BitBlt and character-painting commands in the main-memory
 * work queue, let the MDC poll and execute them, then render part of
 * the simulated 1024x768 screen as ASCII art.
 *
 * Usage: display_demo [message]
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "check/rig.hh"
#include "io/mdc.hh"

using namespace firefly;

namespace
{

constexpr Addr kQueueBase = 0x0010'0000;
constexpr Addr kInputBase = 0x0011'0000;
constexpr Addr kTextBase = 0x0012'0000;

/** The I/O processor's cache on the bus, the QBus behind it, and
 *  the MDC on the QBus. */
struct Machine : check::Rig
{
    QBus qbus;
    Mdc mdc;

    Machine()
        : check::Rig(ProtocolKind::Firefly, {"io-cache"}),
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

} // namespace

int
main(int argc, char **argv)
{
    const std::string message =
        argc > 1 ? argv[1] : "FIREFLY: A Multiprocessor Workstation";

    Machine machine;

    // A window frame: filled title bar, border, then the message
    // painted from the off-screen font cache.
    machine.enqueue(Mdc::encodeFill(16, 16, 640, 96, RasterOp::Clear));
    machine.enqueue(Mdc::encodeFill(16, 16, 640, 2, RasterOp::Set));
    machine.enqueue(Mdc::encodeFill(16, 110, 640, 2, RasterOp::Set));
    machine.enqueue(Mdc::encodeFill(16, 16, 2, 96, RasterOp::Set));
    machine.enqueue(Mdc::encodeFill(654, 16, 2, 96, RasterOp::Set));
    machine.enqueue(Mdc::encodeFill(16, 16, 640, 20, RasterOp::Set));

    // The message text, packed four characters per word.
    for (unsigned i = 0; i < message.size(); i += 4) {
        Word word = 0;
        for (unsigned b = 0; b < 4 && i + b < message.size(); ++b)
            word |= static_cast<Word>(message[i + b]) << (8 * b);
        machine.memory.write(kTextBase + i, word);
    }
    machine.enqueue(Mdc::encodePaintChars(
        32, 56, message.size(), kTextBase));

    machine.drain();

    std::printf("MDC executed %llu commands, painted %llu pixels and "
                "%llu characters in %.2f simulated ms\n\n",
                static_cast<unsigned long long>(
                    machine.mdc.commandsExecuted.value()),
                static_cast<unsigned long long>(
                    machine.mdc.pixelsPainted.value()),
                static_cast<unsigned long long>(
                    machine.mdc.charsPainted.value()),
                machine.sim.seconds() * 1e3);

    // Show the painted region (downsampled 2x horizontally).
    const unsigned text_px = 8 * message.size();
    std::printf("%s\n",
                machine.mdc.frameBuffer()
                    .ascii({24, 48, text_px + 24, 32}, 1)
                    .c_str());
    return 0;
}
