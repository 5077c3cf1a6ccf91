#include "check/golden_memory.hh"

namespace firefly::check
{

bool
GoldenMemory::recentlySuperseded(Cycle now, Addr addr, Word observed) const
{
    // Newest first; the records are in superseded order, so the first
    // expired one ends the search.
    for (std::size_t n = ringCount; n-- > 0;) {
        const Stale &stale = ring[(ringHead + n) & (ring.size() - 1)];
        if (stale.superseded + kRaceWindowCycles < now)
            break;
        if (stale.addr == addr && stale.value == observed)
            return true;
    }
    return false;
}

} // namespace firefly::check
