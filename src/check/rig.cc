#include "check/rig.hh"

namespace firefly::check
{

FireflyConfig
rigConfig(ProtocolKind kind, unsigned caches, Cache::Geometry geom)
{
    FireflyConfig cfg = FireflyConfig::microVax(caches);
    cfg.memoryBytes = 4 * 1024 * 1024;
    cfg.protocol = kind;
    cfg.cacheGeometry = geom;
    return cfg;
}

FireflyConfig
checked(FireflyConfig cfg)
{
    cfg.coherenceCheck = true;
    cfg.checker.throwOnViolation = true;
    return cfg;
}

Rig::Rig(const FireflyConfig &cfg)
    : machine(cfg), sim(machine.simulator()), memory(machine.memory()),
      bus(machine.bus()),
      dma(sim, machine.ioCache(), cfg.ioAddressLimit()),
      checker(machine.checker())
{
    for (unsigned i = 0; i < machine.processorCount(); ++i)
        caches.push_back(&machine.cache(i));
    if (auto *injector = machine.faultInjector())
        dma.setFaultInjector(injector);
}

void
Rig::waitFor(const bool &done)
{
    while (!done)
        sim.run(1);
}

Word
Rig::access(unsigned cache, const MemRef &ref)
{
    bool done = false;
    Word data = 0;
    for (;;) {
        const auto result = caches[cache]->cpuAccess(
            ref, [&](Word w) { done = true; data = w; });
        if (result.outcome == Cache::AccessOutcome::Hit)
            return result.data;
        if (result.outcome == Cache::AccessOutcome::Pending)
            break;
        sim.run(1);  // tag store busy: retry next cycle
    }
    waitFor(done);
    return data;
}

LineState
Rig::state(unsigned cache, Addr addr) const
{
    if (!caches[cache]->holds(addr))
        return LineState::Invalid;
    return caches[cache]->lineAt(addr).state;
}

std::vector<Word>
Rig::dmaRead(Addr addr, unsigned count, IoStatus *status)
{
    bool done = false;
    std::vector<Word> out;
    dma.readWords(addr, count, [&](IoStatus st, std::vector<Word> v) {
        done = true;
        if (status)
            *status = st;
        out = std::move(v);
    });
    waitFor(done);
    return out;
}

IoStatus
Rig::dmaWrite(Addr addr, std::vector<Word> data)
{
    bool done = false;
    IoStatus status = IoStatus::Ok;
    dma.writeWords(addr, std::move(data), [&](IoStatus st) {
        done = true;
        status = st;
    });
    waitFor(done);
    return status;
}

} // namespace firefly::check
