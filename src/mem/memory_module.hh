/**
 * @file
 * One Firefly storage module.
 *
 * The original machine packaged memory as one master 4 MB module plus
 * up to three 4 MB slaves; the CVAX version uses 32 MB modules (up to
 * four, 128 MB total).  A module owns a contiguous physical range and
 * counts its own traffic.
 */

#ifndef FIREFLY_MEM_MEMORY_MODULE_HH
#define FIREFLY_MEM_MEMORY_MODULE_HH

#include <string>

#include "mem/sparse_memory.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace firefly
{

namespace fault
{
class FaultInjector;
}

/** A contiguous memory module on the MBus. */
class MemoryModule
{
  public:
    /**
     * @param name        stat name, e.g. "mem0".
     * @param base        byte address of the first location.
     * @param size_bytes  module capacity in bytes.
     */
    MemoryModule(std::string name, Addr base, Addr size_bytes);

    bool
    contains(Addr byte_addr) const
    {
        return byte_addr >= _base && byte_addr - _base < _sizeBytes;
    }

    Word read(Addr byte_addr);
    void write(Addr byte_addr, Word value);
    /** Functional read that does not count as module traffic. */
    Word
    peek(Addr byte_addr) const
    {
        return storage.read(toWordIndex(byte_addr));
    }

    Addr base() const { return _base; }
    Addr sizeBytes() const { return _sizeBytes; }

    StatGroup &stats() { return statGroup; }

    /**
     * Attach the fault injector (nullptr detaches).  Timed reads then
     * model the module's ECC logic: single-bit errors are corrected
     * on the way out (and scrubbed, so they never become visible);
     * double-bit errors are detected but uncorrectable and raise a
     * machine check.  Functional peeks never touch the ECC model.
     */
    void setFaultInjector(fault::FaultInjector *inj) { injector = inj; }

  private:
    Addr
    toWordIndex(Addr byte_addr) const
    {
        if (!contains(byte_addr))
            outside(byte_addr);
        return (byte_addr - _base) / bytesPerWord;
    }
    /** toWordIndex()'s panic, out of line so peek() inlines. */
    [[noreturn]] void outside(Addr byte_addr) const;

    fault::FaultInjector *injector = nullptr;

    Addr _base;
    Addr _sizeBytes;
    SparseMemory storage;

    StatGroup statGroup;
    Counter readCount;
    Counter writeCount;
};

} // namespace firefly

#endif // FIREFLY_MEM_MEMORY_MODULE_HH
