/**
 * @file
 * The small machine the paper's protocol figures show: a Firefly
 * without processors.  rigConfig() gives the shape - a few caches
 * sharing one MBus and a 4 MB main memory - and Rig drives the
 * FireflySystem built from it, with a DmaEngine through cache 0 (the
 * I/O processor's position).  The blocking helpers stand in for the
 * processors: each issues one access and runs the clock until it
 * completes, retrying while a snoop probe holds the tag store.  Unit
 * tests, the fuzzer, the Figure 3/4 benches, the I/O benches and the
 * examples all build on it.
 *
 * The checker is the machine's own (FireflyConfig::coherenceCheck);
 * checked() turns it on in the mode that throws, so any incoherence a
 * run provokes fails with a line-level diagnostic.
 */

#ifndef FIREFLY_CHECK_RIG_HH
#define FIREFLY_CHECK_RIG_HH

#include <vector>

#include "firefly/system.hh"
#include "io/dma_engine.hh"

namespace firefly::check
{

/** A MicroVAX Firefly with `caches` processor boards and no CPUs,
 *  one 4 MB module, and `geom` caches running `kind`. */
FireflyConfig rigConfig(ProtocolKind kind, unsigned caches = 2,
                        Cache::Geometry geom = {});

/** `cfg` with its coherence checker on, throwing CoherenceViolation
 *  on a violation instead of panicking. */
FireflyConfig checked(FireflyConfig cfg);

/** Blocking access helpers and DMA over one machine. */
struct Rig
{
    explicit Rig(const FireflyConfig &cfg);

    FireflySystem machine;
    Simulator &sim;
    MainMemory &memory;
    MBus &bus;
    /** The machine's caches, in bus priority order. */
    std::vector<Cache *> caches;
    /** DMA through cache 0. */
    DmaEngine dma;
    /** The machine's checker (nullptr unless cfg.coherenceCheck). */
    CoherenceChecker *checker;

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

} // namespace firefly::check

#endif // FIREFLY_CHECK_RIG_HH
