/**
 * @file
 * The CVAX 78034 on-chip cache.
 *
 * 1 KB, inside the processor chip, faster than the board cache.  The
 * paper: "To simplify the problem of maintaining memory coherence, we
 * have chosen to configure that cache to store only instruction
 * references, not data" - because the on-chip cache does not snoop
 * the MBus, cached *data* could go stale when another processor (or
 * DMA) writes the location.
 *
 * This model supports both configurations.  In InstructionsAndData
 * mode it registers as a bus write observer: every observed write
 * that hits an on-chip line is counted as a *stale incident* (the
 * access that real non-snooping hardware would have served with
 * stale data) and the line is invalidated so the simulation stays
 * functionally correct.  The X5 ablation uses this counter.
 */

#ifndef FIREFLY_CPU_ONCHIP_CACHE_HH
#define FIREFLY_CPU_ONCHIP_CACHE_HH

#include <array>
#include <cstddef>
#include <string>

#include "cache/coherence_observer.hh"
#include "cache/mem_ref.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace firefly
{

/** Small direct-mapped non-snooping first-level cache (tags only). */
class OnChipCache
{
  public:
    enum class DataMode
    {
        InstructionsOnly,
        InstructionsAndData,
    };

    /** The chip's fixed geometry: 1 KB of 8-byte lines. */
    static constexpr Addr sizeBytes = 1024;
    static constexpr Addr lineBytes = 8;
    static_assert(lineBytes >= 4 && (lineBytes & (lineBytes - 1)) == 0,
                  "on-chip lines are a power-of-two number of longwords");
    static_assert(sizeBytes % lineBytes == 0,
                  "on-chip size is a whole number of lines");
    /** Direct-mapped: `addr`'s line can only live in entry
     *  indexOf(addr) of numEntries. */
    static constexpr std::size_t numEntries = sizeBytes / lineBytes;
    static constexpr std::size_t
    indexOf(Addr addr)
    {
        return (addr / lineBytes) % numEntries;
    }

    OnChipCache(DataMode mode, std::string name);

    /**
     * Filter an access: true if served on chip (hit); on a cacheable
     * miss the tag is installed and false is returned (the access
     * proceeds to the board cache).  Writes always miss and
     * invalidate any matching on-chip line (write-through to the
     * board cache keeps the hierarchy consistent).
     */
    bool access(const MemRef &ref);

    /** Bus write observed at `addr`: invalidate and count staleness. */
    void observeBusWrite(Addr addr, unsigned words);

    bool cachesData() const
    {
        return mode == DataMode::InstructionsAndData;
    }

    const std::string &name() const { return statGroup.name(); }

    /** Attach a coherence checker (nullptr detaches). */
    void setCoherenceObserver(CoherenceObserver *observer)
    {
        checkObs = observer;
    }

    StatGroup &stats() { return statGroup; }

    Counter hits;
    Counter misses;
    /** Observed writes that hit a line cached on chip: the accesses a
     *  real non-snooping on-chip data cache would have got wrong. */
    Counter staleIncidents;

  private:
    struct Entry
    {
        bool valid = false;
        Addr base = 0;
    };

    Addr lineBaseOf(Addr addr) const;
    Entry &entryFor(Addr addr);

    DataMode mode;
    std::array<Entry, numEntries> entries{};
    CoherenceObserver *checkObs = nullptr;
    StatGroup statGroup;
};

} // namespace firefly

#endif // FIREFLY_CPU_ONCHIP_CACHE_HH
