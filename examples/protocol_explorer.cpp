/**
 * @file
 * Protocol explorer: narrate what the coherence hardware does, bus
 * operation by bus operation, for a canonical two-processor sharing
 * scenario.  Useful for teaching the Firefly protocol and comparing
 * it with the baselines.  The narration is the bus's flight-recorder
 * phase instants (mbus/mbus.hh), printed as they happen; the
 * coherence checker watches the run and aborts on any violation.
 *
 * Usage: protocol_explorer [firefly|dragon|wti|berkeley|mesi]
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "check/rig.hh"
#include "obs/trace.hh"

using namespace firefly;

namespace
{

/** Prints each MBus phase instant as one narration line. */
struct PhasePrinter : obs::TraceSink
{
    unsigned printed = 0;

    void
    event(const obs::TraceEvent &ev) override
    {
        if (ev.kind != obs::EventKind::Instant || ev.args.empty() ||
            ev.args[0].first != "detail")
            return;
        ++printed;
        std::printf("      [cycle %3llu] %-11s %s\n",
                    static_cast<unsigned long long>(ev.when),
                    ev.name.c_str(), ev.args[0].second.c_str());
    }
};

/** Two caches on one bus, under the coherence checker. */
struct Explorer : check::CheckedRig
{
    PhasePrinter printer;
    obs::ScopedTraceSink attach{&printer};

    explicit Explorer(ProtocolKind kind)
        : CheckedRig(kind, {"cpu0-cache", "cpu1-cache"})
    {
    }

    void
    access(unsigned cpu, bool write, Addr addr, Word value)
    {
        const unsigned before = printer.printed;
        CheckedRig::access(
            cpu, {addr, write ? RefType::DataWrite : RefType::DataRead,
                  value});
        if (printer.printed == before)
            std::printf("      (cache hit, no bus traffic)\n");
    }

    void
    show(Addr addr)
    {
        std::printf("      state: cpu0=%s cpu1=%s memory=0x%x\n\n",
                    toString(state(0, addr)), toString(state(1, addr)),
                    memory.read(addr));
    }
};

} // namespace

int
main(int argc, char **argv)
{
    ProtocolKind kind = ProtocolKind::Firefly;
    if (argc > 1) {
        const std::string name = argv[1];
        if (name == "dragon") kind = ProtocolKind::Dragon;
        else if (name == "wti") kind = ProtocolKind::WriteThroughInvalidate;
        else if (name == "berkeley") kind = ProtocolKind::Berkeley;
        else if (name == "mesi") kind = ProtocolKind::Mesi;
        else if (name != "firefly") {
            std::fprintf(stderr, "unknown protocol '%s'\n",
                         name.c_str());
            return 1;
        }
    }

    Explorer ex(kind);
    const Addr addr = 0x1000;
    std::printf("=== %s protocol, two processors, one location "
                "(0x%x) ===\n\n", toString(kind), addr);

    std::printf("1. cpu0 reads (cold miss):\n");
    ex.access(0, false, addr, 0);
    ex.show(addr);

    std::printf("2. cpu0 writes 0x11 (hit):\n");
    ex.access(0, true, addr, 0x11);
    ex.show(addr);

    std::printf("3. cpu1 reads (miss; who supplies the data?):\n");
    ex.access(1, false, addr, 0);
    ex.show(addr);

    std::printf("4. cpu0 writes 0x22 while shared (the protocols "
                "diverge here):\n");
    ex.access(0, true, addr, 0x22);
    ex.show(addr);

    std::printf("5. cpu1 reads again (does it cost a bus trip?):\n");
    ex.access(1, false, addr, 0);
    ex.show(addr);

    std::printf("6. cpu1 evicts its copy (conflicting read), then "
                "cpu0 writes 0x33:\n");
    ex.access(1, false, addr + 16 * 1024, 0);
    ex.access(0, true, addr, 0x33);
    ex.show(addr);

    std::printf("7. cpu0 writes 0x44 (is the line private again?):\n");
    ex.access(0, true, addr, 0x44);
    ex.show(addr);
    ex.checker.finalCheck();

    std::printf("Under Firefly, step 4 is a write-through that "
                "updates cpu1 in place,\nstep 5 is then a free cache "
                "hit, and step 6's write-through sees no\nMShared so "
                "step 7 reverts to silent write-back - conditional\n"
                "write-through in action.\n");
    return 0;
}
