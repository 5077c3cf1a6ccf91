#include "mem/main_memory.hh"

#include "sim/logging.hh"

namespace firefly
{

MainMemory::MainMemory(std::string name)
    : statGroup(std::move(name))
{
}

MemoryModule &
MainMemory::addModule(Addr size_bytes)
{
    auto module = std::make_unique<MemoryModule>(
        "mem" + std::to_string(modules.size()), nextBase, size_bytes);
    nextBase += size_bytes;
    statGroup.addChild(&module->stats());
    modules.push_back(std::move(module));
    return *modules.back();
}

bool
MainMemory::contains(Addr byte_addr) const
{
    return byte_addr < nextBase;
}

MemoryModule &
MainMemory::decode(Addr byte_addr)
{
    for (auto &module : modules) {
        if (module->contains(byte_addr))
            return *module;
    }
    panic("physical address 0x%x has no storage module (installed "
          "0x%x bytes)", byte_addr, nextBase);
}

const MemoryModule &
MainMemory::decode(Addr byte_addr) const
{
    return const_cast<MainMemory *>(this)->decode(byte_addr);
}

Word
MainMemory::read(Addr byte_addr)
{
    return decode(byte_addr).read(byte_addr);
}

Word
MainMemory::peek(Addr byte_addr) const
{
    return decode(byte_addr).peek(byte_addr);
}

void
MainMemory::write(Addr byte_addr, Word value)
{
    decode(byte_addr).write(byte_addr, value);
}

} // namespace firefly
