/**
 * @file
 * Protocol explorer: narrate what the coherence hardware does, bus
 * operation by bus operation, for a canonical two-processor sharing
 * scenario.  Useful for teaching the Firefly protocol and comparing
 * it with the baselines.  The narration is the bus's flight-recorder
 * transaction slices, rendered per cycle by MBusPhaseLog
 * (mbus/mbus.hh); the coherence checker watches the run and aborts
 * on any violation.
 *
 * Usage: protocol_explorer [firefly|dragon|wti|berkeley|mesi]
 */

#include <cstdio>
#include <string>

#include "check/rig.hh"
#include "obs/trace.hh"

using namespace firefly;

namespace
{

/** A rig that narrates the bus cycles of each access. */
struct Explorer : check::Rig
{
    MBusPhaseLog log;
    obs::ScopedTraceSink attach{&log};

    using check::Rig::Rig;

    /** Issue one access and narrate each bus cycle it took. */
    void
    access(unsigned cpu, bool write, Addr addr, Word value)
    {
        log.phases.clear();
        check::Rig::access(
            cpu, {addr, write ? RefType::DataWrite : RefType::DataRead,
                  value});
        for (const MBusPhase &p : log.phases) {
            std::printf("      [cycle %3llu] %-11s %s\n",
                        static_cast<unsigned long long>(p.when),
                        p.name.c_str(), p.detail.c_str());
        }
        if (log.phases.empty())
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
    const std::string name = argc > 1 ? argv[1] : "firefly";
    if (name == "dragon") kind = ProtocolKind::Dragon;
    else if (name == "wti") kind = ProtocolKind::WriteThroughInvalidate;
    else if (name == "berkeley") kind = ProtocolKind::Berkeley;
    else if (name == "mesi") kind = ProtocolKind::Mesi;
    if (argc > 2 || (kind == ProtocolKind::Firefly && name != "firefly")) {
        std::fprintf(stderr,
                     "usage: %s [firefly|dragon|wti|berkeley|mesi]\n",
                     argv[0]);
        return 2;
    }

    FireflyConfig cfg = check::checked(check::rigConfig(kind));
    cfg.cacheNames = {"cpu0-cache", "cpu1-cache"};
    Explorer ex(cfg);
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
    ex.checker->finalCheck();

    std::printf("Under Firefly, step 4 is a write-through that "
                "updates cpu1 in place,\nstep 5 is then a free cache "
                "hit, and step 6's write-through sees no\nMShared so "
                "step 7 reverts to silent write-back - conditional\n"
                "write-through in action.\n");
    return 0;
}
