/**
 * @file
 * Randomized coherence fuzzer.
 *
 * runFuzz() builds a checked Rig (check/rig.hh) - a Firefly of N
 * caches and no CPUs, a DMA engine through cache 0 (the I/O processor
 * position), the machine's coherence checker and, with `faults` set,
 * its fault injector - and drives a pseudo-random reference stream of
 * CPU loads/stores and DMA bursts at it.  Tunables steer the stream
 * toward the interesting corners: sharing (several CPUs hitting a
 * common pool of words), migration (writers moving between caches),
 * and DMA pressure (bursts landing on lines CPUs have cached).
 *
 * The operation sequence is generated up front from the seed alone,
 * so it depends on nothing the protocol decides: running the same
 * seed against two protocols replays the identical reference stream.
 * With `recordLoads` set, every load value (CPU and DMA) is appended
 * to FuzzResult::loadLog in issue order - since operations execute
 * one at a time, coherent protocols must produce identical logs for
 * the same seed, which is the differential cross-protocol test.
 *
 * Every checker hook holds the value a cache binds to the oracle's
 * current value.  Serialized issue adds a check of the value the
 * driver receives: each CPU load and every word of each DMA read must
 * equal current() too (CoherenceChecker::requireCurrent).
 *
 * A violation raises CoherenceViolation (runFuzz always configures
 * the checker to throw); the message carries the seed's failing line,
 * states, and replay log.  Reproduce any fuzz failure by re-running
 * its FuzzConfig - the stream is a pure function of the seed.
 */

#ifndef FIREFLY_CHECK_FUZZ_HH
#define FIREFLY_CHECK_FUZZ_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/protocol.hh"
#include "check/rig.hh"
#include "fault/fault_injector.hh"

namespace firefly::check
{

/** Knobs for one fuzz run.  Defaults are a busy 3-CPU machine. */
struct FuzzConfig
{
    ProtocolKind protocol = ProtocolKind::Firefly;
    std::uint64_t seed = 1;
    unsigned steps = 2000;       ///< operations to issue

    // Machine shape.
    unsigned nCaches = 3;        ///< cache 0 doubles as the I/O cache
    Addr cacheBytes = 256;       ///< tiny, to force evictions
    Addr lineBytes = 4;

    // Reference stream shape.
    unsigned sharedWords = 16;   ///< hot pool all CPUs fight over
    double writeFrac = 0.4;      ///< P(store | CPU op)
    double sharedFrac = 0.6;     ///< P(shared pool | CPU op)
    double migrateFrac = 0.15;   ///< P(another CPU's pool | private)
    double dmaFrac = 0.1;        ///< P(op is a DMA transfer)
    unsigned dmaBurstMax = 4;    ///< longest DMA burst in words

    /** The checker's periodic-scan period (CheckerConfig). */
    unsigned fullScanPeriod = 64;

    /** Record every load value for differential comparison. */
    bool recordLoads = false;

    /**
     * Fault injection (off by default).  Faults are drawn per-event
     * in issue order, so for a given seed the same faults hit the
     * same operations whatever the protocol - recoverable faults must
     * not perturb the differential load log.  The fuzz machine runs
     * with machine checks and the wedge watchdog in throw mode.
     */
    fault::FaultConfig faults;

    /**
     * The table the caches run, overridable so tests can inject a
     * broken protocol and prove the checker has teeth; the checker
     * still judges by `protocol`'s rules.  nullptr:
     * makeProtocol(protocol).
     */
    const ProtocolTable *protocolTable = nullptr;

    /**
     * Called once the rig is built and the checker watches every
     * cache, before the first operation.  Bus observers registered
     * here run after the checker's, so tests can cross-examine it.
     */
    std::function<void(Rig &)> onBuilt;
};

/** A machine shape the fuzz corpus cycles through. */
struct FuzzShape
{
    const char *name;
    void (*apply)(FuzzConfig &);
};

/** The corpus shapes: plain 1-word lines, 2-word lines under heavy
 *  DMA, and a tiny contended 4-cache machine. */
inline constexpr FuzzShape kFuzzShapes[] = {
    {"1-word lines", [](FuzzConfig &) {}},
    {"2-word lines, heavy DMA",
     [](FuzzConfig &cfg) {
         cfg.lineBytes = 8;
         cfg.dmaFrac = 0.2;
         cfg.dmaBurstMax = 4;
     }},
    {"4 caches, tiny, contended",
     [](FuzzConfig &cfg) {
         cfg.nCaches = 4;
         cfg.cacheBytes = 128;
         cfg.sharedFrac = 0.85;
         cfg.migrateFrac = 0.3;
     }},
};

/** What one fuzz run did (all zero-violation: violations throw). */
struct FuzzResult
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t dmaReads = 0;     ///< words read by DMA
    std::uint64_t dmaWrites = 0;    ///< words written by DMA
    Cycle cycles = 0;
    std::uint64_t loadsChecked = 0;
    std::uint64_t writesTracked = 0;
    std::uint64_t fullScans = 0;
    /** Every load value in issue order (when cfg.recordLoads). */
    std::vector<Word> loadLog;

    // Fault/recovery activity (zero when faults are off).
    std::uint64_t parityErrors = 0;
    std::uint64_t parityRecovered = 0;
    std::uint64_t eccCorrected = 0;
    std::uint64_t deviceTimeouts = 0;
    std::uint64_t deviceRetries = 0;
    std::uint64_t deviceFailures = 0;

    bool operator==(const FuzzResult &) const = default;
};

/**
 * Run one fuzz instance to completion (including a final full
 * invariant scan).  Throws CoherenceViolation on any violation.
 */
FuzzResult runFuzz(const FuzzConfig &cfg);

} // namespace firefly::check

#endif // FIREFLY_CHECK_FUZZ_HH
