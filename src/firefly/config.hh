/**
 * @file
 * Whole-machine configuration.
 *
 * Encodes the two hardware generations described by the paper and
 * validates the constraints the real machines had:
 *
 *   MicroVAX Firefly (1985): 1-7 MicroVAX 78032 processors, 16 KB
 *   direct-mapped caches with 4-byte lines, 4-16 MB of memory in
 *   4 MB modules (the 24-bit limit the paper calls its most serious
 *   compromise).
 *
 *   CVAX Firefly (1987): CVAX 78034 processors, 64 KB caches, 1 KB
 *   on-chip instruction-only cache, up to 128 MB in 32 MB modules -
 *   but the primary (I/O) processor and DMA still reach only the
 *   first 16 MB.
 */

#ifndef FIREFLY_FIREFLY_CONFIG_HH
#define FIREFLY_FIREFLY_CONFIG_HH

#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/protocol.hh"
#include "check/coherence_checker.hh"
#include "cpu/onchip_cache.hh"
#include "fault/fault_injector.hh"
#include "sim/types.hh"

namespace firefly
{

/** Hardware generation. */
enum class MachineVersion
{
    MicroVax,
    Cvax,
};

const char *toString(MachineVersion version);

/** Configuration of one simulated Firefly. */
struct FireflyConfig
{
    MachineVersion version = MachineVersion::MicroVax;

    /** Most processors validate() accepts (for scaling experiments). */
    static constexpr unsigned maxProcessors = 16;

    /** Processor count including the primary (I/O) processor.  The
     *  standard machine shipped with five; SRC built a few sevens;
     *  the model allows up to maxProcessors. */
    unsigned processors = 5;

    /** Installed memory; rounded up to whole modules. */
    Addr memoryBytes = 16 * 1024 * 1024;

    /** Coherence protocol (Firefly on the real machine; others for
     *  the comparison experiments). */
    ProtocolKind protocol = ProtocolKind::Firefly;

    /** The table the caches run instead of makeProtocol(protocol),
     *  so a test can run a deliberately broken protocol; the checker
     *  still judges by `protocol`'s rules.  nullptr: the real one. */
    const ProtocolTable *protocolTable = nullptr;

    /** The caches' names, in bus priority order (empty: cache0,
     *  cache1, ...); otherwise one per processor. */
    std::vector<std::string> cacheNames;

    /** Board cache geometry; {0, 0} selects the version's default
     *  (16 KB/4 B MicroVAX, 64 KB/4 B CVAX). */
    Cache::Geometry cacheGeometry{0, 0};

    /** CVAX only: enable the on-chip cache. */
    bool onChipCacheEnabled = true;
    OnChipCache::DataMode onChipMode =
        OnChipCache::DataMode::InstructionsOnly;

    /** Attach the coherence checker (src/check/): every load is
     *  validated against the golden-memory oracle and protocol
     *  invariants are scanned after every bus transaction.  Purely
     *  observational - statistics are unchanged - but costs time;
     *  off by default. */
    bool coherenceCheck = false;
    /** The attached checker's settings. */
    check::CheckerConfig checker;

    /** Due-cycle gating and idle fast-forward
     *  (Simulator::setFastForward).  Off, every component ticks every
     *  cycle: the reference path, with identical statistics.  The
     *  benches' --no-fast-forward turns it off. */
    bool fastForward = true;

    /** Fault-injection campaign (src/fault/).  Inactive by default;
     *  when active the system owns a FaultInjector wired into the
     *  bus, memory, and the event-queue watchdog. */
    fault::FaultConfig faults;

    /** Module size for this version. */
    Addr moduleBytes() const;
    /** Effective cache geometry after defaulting. */
    Cache::Geometry effectiveGeometry() const;
    /** Highest address the I/O processor and DMA can reach. */
    Addr ioAddressLimit() const { return 16 * 1024 * 1024; }

    /** Die (fatal) if the configuration violates hardware limits;
     *  warn, once per process, past the seven processors SRC built. */
    void validate() const;

    static FireflyConfig microVax(unsigned processors = 5);
    static FireflyConfig cvax(unsigned processors = 5);
};

} // namespace firefly

#endif // FIREFLY_FIREFLY_CONFIG_HH
