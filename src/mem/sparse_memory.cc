#include "mem/sparse_memory.hh"

#include <cstring>

#include "sim/logging.hh"

namespace firefly
{

SparseMemory::SparseMemory(Addr size_words)
    : _sizeWords(size_words),
      chunks((static_cast<std::size_t>(size_words) + chunkWords - 1) /
             chunkWords)
{
}

void
SparseMemory::outOfBounds(Addr word_addr) const
{
    panic("memory access beyond end: word 0x%x of 0x%x", word_addr,
          _sizeWords);
}

void
SparseMemory::write(Addr word_addr, Word value)
{
    checkBounds(word_addr);
    auto &chunk = chunks[word_addr / chunkWords];
    if (!chunk) {
        chunk = std::make_unique<Word[]>(chunkWords);
        std::memset(chunk.get(), 0, chunkWords * sizeof(Word));
        ++allocated;
    }
    chunk[word_addr % chunkWords] = value;
}

} // namespace firefly
