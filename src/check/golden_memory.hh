/**
 * @file
 * The coherence oracle: the globally-visible value of every word.
 *
 * GoldenMemory shadows the simulated address space at word
 * granularity.  serialize() is called at the simulated instant a
 * write becomes globally visible - a silent write-back hit (the line
 * is exclusive), the commit cycle of a bus MWrite, or the commit of
 * the MInvalidate/MReadOwned that carried the written word.  Words
 * never written since construction read as main memory's current
 * content (the simulator's memory is only mutated through the bus,
 * so an untouched word's baseline is authoritative).
 *
 * Load validation uses admissible(), not plain equality, because the
 * simulator binds some load values a cycle or two before the
 * serialization instant the oracle keys on (a fill's data phase runs
 * before its commit).  Each word therefore keeps the values it held
 * within the last few cycles; a load is admissible if it returns the
 * current value or one superseded no more than kRaceWindowCycles
 * cycles ago.  The window is a handful of bus cycles - far shorter
 * than any genuine staleness a protocol bug produces, which persists
 * until the line is re-fetched.  A driver that issues one operation
 * at a time (runFuzz) has no such race and holds each load to
 * current() exactly.
 */

#ifndef FIREFLY_CHECK_GOLDEN_MEMORY_HH
#define FIREFLY_CHECK_GOLDEN_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/main_memory.hh"
#include "sim/types.hh"

namespace firefly::check
{

/** Cycles a superseded value stays an admissible load result. */
inline constexpr unsigned kRaceWindowCycles = 16;

/** Word-granular oracle of globally-visible memory contents. */
class GoldenMemory
{
  public:
    explicit GoldenMemory(const MainMemory &memory) : memory(memory) {}

    /** Record that `value` became the visible content of `addr`. */
    void
    serialize(Cycle now, Addr addr, Word value)
    {
        auto [it, inserted] = entries.try_emplace(addr);
        Entry &entry = it->second;
        if (inserted) {
            // First write: the old visible value was memory's.
            entry.recent.push_back({memory.peek(addr), now});
        } else if (entry.value != value) {
            entry.recent.push_back({entry.value, now});
        }
        entry.value = value;
        entry.when = now;
        prune(entry, now);
    }

    /** True if `addr` has ever been written through the oracle. */
    bool tracked(Addr addr) const { return entries.count(addr) != 0; }

    /** True if `addr` is tracked and memory does not hold its
     *  visible value (one lookup: the scans ask this of every word). */
    bool
    memoryStale(Addr addr) const
    {
        const auto it = entries.find(addr);
        return it != entries.end() && memory.peek(addr) != it->second.value;
    }

    /** The visible value: last serialized write, else memory. */
    Word
    current(Addr addr) const
    {
        const auto it = entries.find(addr);
        return it != entries.end() ? it->second.value
                                   : memory.peek(addr);
    }

    /** Cycle of the last serialized write (0 if untracked). */
    Cycle
    writtenAt(Addr addr) const
    {
        const auto it = entries.find(addr);
        return it != entries.end() ? it->second.when : 0;
    }

    /**
     * Is `observed` an admissible result for a load of `addr` that
     * bound its value at cycle `now`?
     */
    bool
    admissible(Cycle now, Addr addr, Word observed) const
    {
        const auto it = entries.find(addr);
        if (it == entries.end())
            return observed == memory.peek(addr);
        const Entry &entry = it->second;
        if (observed == entry.value)
            return true;
        for (const Stale &stale : entry.recent) {
            if (observed == stale.value &&
                stale.superseded + kRaceWindowCycles >= now) {
                return true;
            }
        }
        return false;
    }

    /**
     * True while a value `addr` held before its last write may still
     * be admissible (see admissible()): the verdict on a cached copy
     * of `addr` can change at `now` or later with no further event.
     */
    bool
    inRaceWindow(Cycle now, Addr addr) const
    {
        const auto it = entries.find(addr);
        return it != entries.end() &&
               it->second.when + kRaceWindowCycles >= now;
    }

    /** Call `fn(addr)` for every tracked word, in no set order. */
    template <typename Fn>
    void
    forEachTracked(Fn &&fn) const
    {
        for (const auto &entry : entries)
            fn(entry.first);
    }

  private:
    /** A value superseded at `superseded`; admissible briefly. */
    struct Stale
    {
        Word value;
        Cycle superseded;
    };

    struct Entry
    {
        Word value = 0;
        Cycle when = 0;
        std::vector<Stale> recent;
    };

    void
    prune(Entry &entry, Cycle now)
    {
        std::erase_if(entry.recent, [&](const Stale &stale) {
            return stale.superseded + kRaceWindowCycles < now;
        });
    }

    const MainMemory &memory;
    std::unordered_map<Addr, Entry> entries;
};

} // namespace firefly::check

#endif // FIREFLY_CHECK_GOLDEN_MEMORY_HH
