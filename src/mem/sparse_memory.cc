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
SparseMemory::checkBounds(Addr word_addr) const
{
    if (word_addr >= _sizeWords) {
        panic("memory access beyond end: word 0x%x of 0x%x",
              word_addr, _sizeWords);
    }
}

Word
SparseMemory::read(Addr word_addr) const
{
    checkBounds(word_addr);
    const Word *chunk = chunks[word_addr / chunkWords].get();
    return chunk ? chunk[word_addr % chunkWords] : 0;
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
