#include "cpu/onchip_cache.hh"

namespace firefly
{

OnChipCache::OnChipCache(DataMode mode, std::string name)
    : mode(mode), statGroup(std::move(name))
{
    statGroup.addCounter(&hits, "hits", "accesses served on chip");
    statGroup.addCounter(&misses, "misses",
                         "cacheable accesses sent to the board cache");
    statGroup.addCounter(&staleIncidents, "stale_incidents",
                         "bus writes that hit on-chip lines (the "
                         "accesses a non-snooping data cache would "
                         "serve stale)");
}

Addr
OnChipCache::lineBaseOf(Addr addr) const
{
    return addr - addr % lineBytes;
}

OnChipCache::Entry &
OnChipCache::entryFor(Addr addr)
{
    return entries[(addr / lineBytes) % entries.size()];
}

bool
OnChipCache::access(const MemRef &ref)
{
    Entry &entry = entryFor(ref.addr);
    const bool match = entry.valid && entry.base == lineBaseOf(ref.addr);

    if (isWrite(ref.type)) {
        // Writes go to the board cache; keep the hierarchy inclusive
        // enough by dropping our copy.
        if (match)
            entry.valid = false;
        return false;
    }

    const bool cacheable = ref.type == RefType::InstrRead ||
        (ref.type == RefType::DataRead && cachesData());
    if (!cacheable)
        return false;

    if (match) {
        ++hits;
        if (checkObs)
            checkObs->onChipHit(ref, *this);
        return true;
    }
    ++misses;
    entry.valid = true;
    entry.base = lineBaseOf(ref.addr);
    if (checkObs)
        checkObs->onChipInstalled(entry.base, *this);
    return false;
}

void
OnChipCache::observeBusWrite(Addr addr, unsigned words)
{
    for (unsigned i = 0; i < words; ++i) {
        const Addr a = addr + i * bytesPerWord;
        Entry &entry = entryFor(a);
        if (entry.valid && entry.base == lineBaseOf(a)) {
            entry.valid = false;
            ++staleIncidents;
        }
    }
}

} // namespace firefly
