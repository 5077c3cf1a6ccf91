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
 * before its commit).  The oracle therefore remembers the values
 * words held within the last few cycles; a load is admissible if it
 * returns the current value or one superseded no more than
 * kRaceWindowCycles cycles ago.  The window is a handful of bus
 * cycles - far shorter than any genuine staleness a protocol bug
 * produces, which persists until the line is re-fetched.  A driver
 * that issues one operation at a time (runFuzz) has no such race and
 * holds each load to current() exactly.
 *
 * Layout (DESIGN.md section 9): the tracked words live in one flat
 * open-addressed table of {addr, value, when} slots - linear probing,
 * a power-of-two size kept at most half full, a non-word-aligned
 * address marking an empty slot - so a tracked word costs no heap
 * node of its own.  The superseded values live in one time-ordered
 * ring of {addr, value, superseded} records for the whole oracle,
 * dropped from the front once they leave the race window.  Both are
 * allocated on the first serialize(), never at construction.  Every
 * caller passes a `now` that never decreases from one call to the
 * next (the simulator's clock), which is what lets admissible() stop
 * at the first expired record and serialize() expire from the front.
 */

#ifndef FIREFLY_CHECK_GOLDEN_MEMORY_HH
#define FIREFLY_CHECK_GOLDEN_MEMORY_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/main_memory.hh"
#include "sim/logging.hh"
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
        if (addr % bytesPerWord != 0)
            panic("oracle: unaligned serialize of 0x%x", addr);
        if ((used + 1) * 2 > slots.size())
            grow();
        Slot &slot = probe(addr);
        if (slot.addr == kEmpty) {
            // First write: the old visible value was memory's.
            slot.addr = addr;
            ++used;
            pushStale({addr, memory.peek(addr), now});
        } else if (slot.value != value) {
            pushStale({addr, slot.value, now});
        }
        slot.value = value;
        slot.when = now;
        expire(now);
    }

    /** True if `addr` has ever been written through the oracle. */
    bool tracked(Addr addr) const { return find(addr) != nullptr; }

    /** One word as the scans see it (see word()). */
    struct WordState
    {
        Word current;      ///< the visible value, as current() gives it
        bool tracked;      ///< written through the oracle
        bool memoryStale;  ///< memory does not hold `current`
    };

    /** `addr`'s visible value, whether it is tracked and whether
     *  memory is stale, from one table lookup and one memory peek
     *  (the scans ask this of every word they check). */
    WordState
    word(Addr addr) const
    {
        const Slot *slot = find(addr);
        const Word in_memory = memory.peek(addr);
        if (!slot)
            return {in_memory, false, false};
        return {slot->value, true, in_memory != slot->value};
    }

    /** The visible value: last serialized write, else memory. */
    Word
    current(Addr addr) const
    {
        const Slot *slot = find(addr);
        return slot ? slot->value : memory.peek(addr);
    }

    /** Cycle of the last serialized write (0 if untracked). */
    Cycle
    writtenAt(Addr addr) const
    {
        const Slot *slot = find(addr);
        return slot ? slot->when : 0;
    }

    /**
     * Is `observed` an admissible result for a load of `addr` that
     * bound its value at cycle `now`?
     */
    bool
    admissible(Cycle now, Addr addr, Word observed) const
    {
        const Slot *slot = find(addr);
        if (!slot)
            return observed == memory.peek(addr);
        return observed == slot->value ||
               recentlySuperseded(now, addr, observed);
    }

    /**
     * Did `addr` hold `observed` until a write no more than
     * kRaceWindowCycles before `now`?  admissible()'s ring search,
     * for a caller that already knows `observed` is not current.
     * Out of line: it runs only for a value that is not current, and
     * keeping it out leaves admissible() small enough to inline into
     * the load hook.
     */
    bool recentlySuperseded(Cycle now, Addr addr, Word observed) const;

    /** Call `fn(addr)` for every tracked word, in no set order. */
    template <typename Fn>
    void
    forEachTracked(Fn &&fn) const
    {
        for (const Slot &slot : slots) {
            if (slot.addr != kEmpty)
                fn(slot.addr);
        }
    }

  private:
    /** Marks an empty slot: no tracked word has this address. */
    static constexpr Addr kEmpty = 1;
    static constexpr std::size_t kInitialSlots = 256;
    static constexpr std::size_t kInitialRing = 64;

    /** A tracked word. */
    struct Slot
    {
        Addr addr = kEmpty;
        Word value = 0;
        Cycle when = 0;
    };

    /** `value`, held by `addr` until `superseded`; admissible briefly. */
    struct Stale
    {
        Addr addr;
        Word value;
        Cycle superseded;
    };

    std::size_t
    home(Addr addr) const
    {
        // Fibonacci hashing of the word index, top bits as the slot.
        const std::uint64_t h =
            (std::uint64_t{addr / bytesPerWord} * 0x9E3779B97F4A7C15ull);
        return static_cast<std::size_t>(h >> shift);
    }

    /** `addr`'s slot, or the empty slot where it would go. */
    Slot &
    probe(Addr addr)
    {
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = home(addr);; i = (i + 1) & mask) {
            if (slots[i].addr == addr || slots[i].addr == kEmpty)
                return slots[i];
        }
    }

    const Slot *
    find(Addr addr) const
    {
        if (slots.empty())
            return nullptr;
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = home(addr);; i = (i + 1) & mask) {
            if (slots[i].addr == kEmpty)
                return nullptr;
            if (slots[i].addr == addr)
                return &slots[i];
        }
    }

    /** Double the table (or allocate its first slots) and rehash. */
    void
    grow()
    {
        std::vector<Slot> old(slots.empty() ? kInitialSlots
                                            : slots.size() * 2);
        old.swap(slots);
        shift = 64 - std::countr_zero(slots.size());
        for (const Slot &slot : old) {
            if (slot.addr != kEmpty)
                probe(slot.addr) = slot;
        }
    }

    void
    pushStale(const Stale &stale)
    {
        if (ringCount == ring.size()) {
            // Full: unroll into a ring twice the size.  No cap - a
            // value still inside the window is never dropped.
            std::vector<Stale> bigger(ring.empty() ? kInitialRing
                                                   : ring.size() * 2);
            for (std::size_t n = 0; n < ringCount; ++n)
                bigger[n] = ring[(ringHead + n) & (ring.size() - 1)];
            ring.swap(bigger);
            ringHead = 0;
        }
        ring[(ringHead + ringCount) & (ring.size() - 1)] = stale;
        ++ringCount;
    }

    /** Drop the records no load at `now` or later can admit. */
    void
    expire(Cycle now)
    {
        while (ringCount &&
               ring[ringHead].superseded + kRaceWindowCycles < now) {
            ringHead = (ringHead + 1) & (ring.size() - 1);
            --ringCount;
        }
    }

    const MainMemory &memory;
    /** Open-addressed, linear probing, at most half full. */
    std::vector<Slot> slots;
    std::size_t used = 0;
    /** 64 - log2(slots.size()): home()'s shift. */
    unsigned shift = 64;
    /** Superseded values in superseded order, oldest at ringHead. */
    std::vector<Stale> ring;
    std::size_t ringHead = 0;
    std::size_t ringCount = 0;
};

} // namespace firefly::check

#endif // FIREFLY_CHECK_GOLDEN_MEMORY_HH
