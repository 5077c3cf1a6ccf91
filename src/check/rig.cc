#include "check/rig.hh"

namespace firefly::check
{

namespace
{

CheckerConfig
throwing(CheckerConfig ccfg)
{
    ccfg.throwOnViolation = true;
    return ccfg;
}

} // namespace

CacheNames::CacheNames(unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        names.push_back("cache" + std::to_string(i));
}

Rig::Rig(ProtocolKind kind, CacheNames names, Cache::Geometry geom,
         const ProtocolTable *table)
{
    memory.addModule(4 * 1024 * 1024);
    for (std::string &name : names.names) {
        caches.push_back(std::make_unique<Cache>(
            sim, bus, table ? *table : makeProtocol(kind), geom,
            std::move(name)));
    }
    if (!caches.empty())
        dma.emplace(sim, *caches[0], 16 * 1024 * 1024);
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
    dma->readWords(addr, count, [&](IoStatus st, std::vector<Word> v) {
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
    dma->writeWords(addr, std::move(data), [&](IoStatus st) {
        done = true;
        status = st;
    });
    waitFor(done);
    return status;
}

CheckedRig::CheckedRig(ProtocolKind kind, CacheNames names,
                       Cache::Geometry geom, const ProtocolTable *table,
                       CheckerConfig ccfg)
    : Rig(kind, std::move(names), geom, table),
      checker(sim, bus, memory, kind, throwing(ccfg))
{
    for (auto &cache : caches)
        checker.watch(*cache);
}

} // namespace firefly::check
