/**
 * @file
 * The complete main storage system: address decode across modules.
 */

#ifndef FIREFLY_MEM_MAIN_MEMORY_HH
#define FIREFLY_MEM_MAIN_MEMORY_HH

#include <memory>
#include <utility>
#include <vector>

#include "mem/memory_module.hh"

namespace firefly
{

/** Decodes physical addresses across the installed storage modules. */
class MainMemory
{
  public:
    explicit MainMemory(std::string name = "memory");

    /**
     * Install a module of `size_bytes` immediately after the last one.
     * @return the new module.
     */
    MemoryModule &addModule(Addr size_bytes);

    /** Total installed bytes. */
    Addr sizeBytes() const { return nextBase; }

    /** True if the byte address decodes to an installed module. */
    bool contains(Addr byte_addr) const { return byte_addr < nextBase; }

    Word read(Addr byte_addr);
    void write(Addr byte_addr, Word value);
    /**
     * Functional read that bypasses the traffic counters.  The
     * coherence checker compares cached data against memory after
     * every bus transaction; counting those reads would perturb the
     * module statistics the benches report.
     */
    Word
    peek(Addr byte_addr) const
    {
        return decode(byte_addr).peek(byte_addr);
    }

    unsigned moduleCount() const { return modules.size(); }
    MemoryModule &module(unsigned i) { return *modules.at(i); }

    /** Attach the fault injector to every installed module (call
     *  after the last addModule). */
    void
    setFaultInjector(fault::FaultInjector *inj)
    {
        for (auto &m : modules)
            m->setFaultInjector(inj);
    }

    StatGroup &stats() { return statGroup; }

  private:
    const MemoryModule &
    decode(Addr byte_addr) const
    {
        for (const auto &module : modules) {
            if (module->contains(byte_addr))
                return *module;
        }
        noModule(byte_addr);
    }
    MemoryModule &
    decode(Addr byte_addr)
    {
        return const_cast<MemoryModule &>(
            std::as_const(*this).decode(byte_addr));
    }
    /** decode()'s panic, out of line so the lookup inlines. */
    [[noreturn]] void noModule(Addr byte_addr) const;

    std::vector<std::unique_ptr<MemoryModule>> modules;
    Addr nextBase = 0;
    StatGroup statGroup;
};

} // namespace firefly

#endif // FIREFLY_MEM_MAIN_MEMORY_HH
