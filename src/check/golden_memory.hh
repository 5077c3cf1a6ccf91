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
 * Every load, every victim write-back, every cached copy and every
 * on-chip snapshot is held to current() exactly: no superseded value
 * is ever accepted.  If a correct machine ever binds a value before
 * the instant the oracle serializes it, the serialize() call moves to
 * the instant the value becomes visible (DESIGN.md section 9).
 *
 * Layout (DESIGN.md section 9): the tracked words live in one flat
 * open-addressed table of {addr, value, when} slots - linear probing,
 * a power-of-two size kept at most half full, a non-word-aligned
 * address marking an empty slot - so a tracked word costs no heap
 * node of its own.  The table is allocated on the first serialize(),
 * never at construction.
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
            slot.addr = addr;
            ++used;
        }
        slot.value = value;
        slot.when = now;
    }

    /** True if `addr` has ever been written through the oracle. */
    bool tracked(Addr addr) const { return find(addr) != nullptr; }

    /** One word as the scans see it (see word()). */
    struct WordState
    {
        Word current;      ///< the visible value, as current() gives it
        bool memoryStale;  ///< memory does not hold `current`
    };

    /** `addr`'s visible value and whether memory is stale, from one
     *  table lookup and one memory peek (the scans ask this of every
     *  word they check). */
    WordState
    word(Addr addr) const
    {
        const Slot *slot = find(addr);
        const Word in_memory = memory.peek(addr);
        if (!slot)
            return {in_memory, false};
        return {slot->value, in_memory != slot->value};
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

    /** A tracked word. */
    struct Slot
    {
        Addr addr = kEmpty;
        Word value = 0;
        Cycle when = 0;
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

    const MainMemory &memory;
    /** Open-addressed, linear probing, at most half full. */
    std::vector<Slot> slots;
    std::size_t used = 0;
    /** 64 - log2(slots.size()): home()'s shift. */
    unsigned shift = 64;
};

} // namespace firefly::check

#endif // FIREFLY_CHECK_GOLDEN_MEMORY_HH
