/**
 * @file
 * Sparse word-addressable backing store.
 *
 * A CVAX Firefly can have 128 MB of physical memory; workloads touch
 * only a fraction of it, so the backing store allocates fixed-size
 * chunks lazily.  Unwritten memory reads as zero, matching
 * initialised DRAM after the MBus init sequence.  The chunk table is
 * a flat vector indexed by chunk number (one pointer per 64 KB: 16 KB
 * of table for 128 MB), so a lookup is one index, not a hash.
 */

#ifndef FIREFLY_MEM_SPARSE_MEMORY_HH
#define FIREFLY_MEM_SPARSE_MEMORY_HH

#include <memory>
#include <vector>

#include "sim/types.hh"

namespace firefly
{

/** Lazily allocated array of 32-bit words indexed by word address. */
class SparseMemory
{
  public:
    /** @param size_words capacity; accesses beyond it panic. */
    explicit SparseMemory(Addr size_words);

    Word
    read(Addr word_addr) const
    {
        checkBounds(word_addr);
        const Word *chunk = chunks[word_addr / chunkWords].get();
        return chunk ? chunk[word_addr % chunkWords] : 0;
    }

    void write(Addr word_addr, Word value);

    /** Number of chunks actually allocated (for tests). */
    std::size_t allocatedChunks() const { return allocated; }

  private:
    static constexpr Addr chunkWords = 16384; // 64 KB chunks

    void
    checkBounds(Addr word_addr) const
    {
        if (word_addr >= _sizeWords)
            outOfBounds(word_addr);
    }
    /** checkBounds()'s panic, out of line so read() inlines. */
    [[noreturn]] void outOfBounds(Addr word_addr) const;

    Addr _sizeWords;
    std::vector<std::unique_ptr<Word[]>> chunks;  ///< null: all zero
    std::size_t allocated = 0;
};

} // namespace firefly

#endif // FIREFLY_MEM_SPARSE_MEMORY_HH
