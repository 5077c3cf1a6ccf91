/**
 * @file
 * The small machine the paper's protocol figures show: a few caches
 * sharing one MBus and a 4 MB main memory, with a DmaEngine through
 * cache 0 (the I/O processor's position).  The blocking helpers
 * stand in for the processors: each issues one access and runs the
 * clock until it completes, retrying while a snoop probe holds the
 * tag store.  Unit tests, the fuzzer, the Figure 3/4 benches, the I/O
 * benches and the examples all build on it.
 *
 * CheckedRig attaches a CoherenceChecker that throws on a violation,
 * so any incoherence a run provokes fails with a line-level
 * diagnostic.
 */

#ifndef FIREFLY_CHECK_RIG_HH
#define FIREFLY_CHECK_RIG_HH

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/protocol.hh"
#include "check/coherence_checker.hh"
#include "io/dma_engine.hh"
#include "mbus/mbus.hh"
#include "mem/main_memory.hh"
#include "sim/simulator.hh"

namespace firefly::check
{

/** The rig's cache names, in bus priority order; a count `n` names
 *  them cache0 .. cache<n-1>. */
struct CacheNames
{
    std::vector<std::string> names;

    CacheNames(unsigned n);
    CacheNames(std::initializer_list<std::string> list) : names(list) {}
};

/** Memory, bus, caches and DMA, with blocking access helpers. */
struct Rig
{
    Simulator sim;
    MainMemory memory;
    MBus bus{sim, memory};
    std::vector<std::unique_ptr<Cache>> caches;
    /** DMA through cache 0; absent on a rig without caches. */
    std::optional<DmaEngine> dma;

    /** `table` overrides the table the caches run; nullptr =
     *  makeProtocol(kind). */
    explicit Rig(ProtocolKind kind, CacheNames names = 2u,
                 Cache::Geometry geom = {},
                 const ProtocolTable *table = nullptr);

    /** Issue one access and run the clock until it completes. */
    Word access(unsigned cache, const MemRef &ref);

    Word
    read(unsigned cache, Addr addr)
    {
        return access(cache, {addr, RefType::DataRead, 0});
    }

    void
    write(unsigned cache, Addr addr, Word value)
    {
        access(cache, {addr, RefType::DataWrite, value});
    }

    /** The state of `addr`'s line in `cache` (Invalid if absent). */
    LineState state(unsigned cache, Addr addr) const;

    /** DMA `count` words from `addr` and wait; a timed-out transfer
     *  reports through `status`. */
    std::vector<Word> dmaRead(Addr addr, unsigned count,
                              IoStatus *status = nullptr);
    /** DMA `data` to `addr` and wait. */
    IoStatus dmaWrite(Addr addr, std::vector<Word> data);

  private:
    void waitFor(const bool &done);
};

/** A Rig whose every cache the throwing coherence checker watches. */
struct CheckedRig : Rig
{
    CoherenceChecker checker;

    explicit CheckedRig(ProtocolKind kind, CacheNames names = 2u,
                        Cache::Geometry geom = {},
                        const ProtocolTable *table = nullptr,
                        CheckerConfig ccfg = {});
};

} // namespace firefly::check

#endif // FIREFLY_CHECK_RIG_HH
