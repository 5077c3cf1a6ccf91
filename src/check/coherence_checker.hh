/**
 * @file
 * The coherence checker: oracle + invariant scanner + replay log.
 *
 * One CoherenceChecker watches one simulated machine.  It hooks the
 * machine at three levels:
 *
 *  - as a CoherenceObserver on every watched Cache (and on-chip
 *    cache), it learns the instant every load binds its value and
 *    every non-bus write serializes;
 *  - as an MBus commit observer, it learns bus-written values at the
 *    serialization instant, before any completion callback can
 *    trigger the next validated load;
 *  - as an MBus settle observer, it scans the transaction's line
 *    (and periodically every line touched since the last periodic
 *    scan) against the InvariantScanner once all snoop/completion
 *    callbacks have applied their state changes.  The commit
 *    observer appends the transaction to a bounded replay ring.
 *
 * On a violation it emits a flight-recorder instant event (category
 * "Check"), then either throws CoherenceViolation (tests) or panics
 * (standalone runs), in both cases carrying a deterministic
 * diagnostic: the failed check, every cache's copy of the line,
 * memory and oracle contents, and the last K bus transactions that
 * touched the line.
 *
 * The checker never mutates simulator state: it peeks memory through
 * the stat-free MainMemory::peek and reads cache lines through const
 * accessors, so a checked run's statistics equal an unchecked one's.
 *
 * The tags-only on-chip cache is validated by value snapshot: at
 * install time the checker records the oracle's view of the line; on
 * every on-chip hit the snapshot must still be admissible, or the
 * non-snooping structure would have served stale data.  (The
 * snapshot is taken at the install/access instant, so in
 * InstructionsOnly mode a write landing between a miss and its fill
 * completion can look stale; none of the shipped workloads write
 * instruction words, and InstructionsAndData mode is exact because
 * the bus-write repair drops the entry first.)
 */

#ifndef FIREFLY_CHECK_COHERENCE_CHECKER_HH
#define FIREFLY_CHECK_COHERENCE_CHECKER_HH

#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "check/golden_memory.hh"
#include "check/invariant_scanner.hh"
#include "cpu/onchip_cache.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace firefly::check
{

/** Tunables; the defaults suit a unit-test-sized machine. */
struct CheckerConfig
{
    /** Bus transactions kept for the per-line replay log. */
    unsigned replayDepth = 16;
    /** Each N transactions, scan every line that changed since the
     *  last such scan (0 = never; the per-transaction line scan still
     *  runs, and finalCheck() always scans every line). */
    unsigned fullScanPeriod = 256;
    /** Cycles a superseded value stays an admissible load result. */
    unsigned raceWindowCycles = 16;
    /** Throw CoherenceViolation instead of panicking. */
    bool throwOnViolation = false;
};

/** Raised on a violation when CheckerConfig::throwOnViolation. */
class CoherenceViolation : public std::runtime_error
{
  public:
    explicit CoherenceViolation(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Watches one machine's caches and bus for coherence violations. */
class CoherenceChecker : public CoherenceObserver
{
  public:
    CoherenceChecker(Simulator &sim, MBus &bus, MainMemory &memory,
                     ProtocolKind kind, CheckerConfig config = {});

    /** Attach a cache; call once per cache before running. */
    void watch(Cache &cache);
    /** Attach an on-chip cache for snapshot validation. */
    void watch(OnChipCache &onchip);

    /** Full invariant scan; call at end of run for a final verdict. */
    void finalCheck();

    GoldenMemory &oracle() { return golden; }
    StatGroup &stats() { return statGroup; }

    // --- CoherenceObserver ----------------------------------------------
    void writeSerialized(Addr addr, Word value, const Cache &by,
                         const char *how) override;
    void loadObserved(Addr addr, Word value, const Cache &by,
                      const char *how) override;
    void onChipInstalled(Addr line_base, const OnChipCache &by) override;
    void onChipHit(const MemRef &ref, const OnChipCache &by) override;

    // Counters, public like the Cache's so tests can read them.
    Counter loadsChecked;
    Counter writesTracked;
    Counter txnsObserved;
    Counter lineScans;
    Counter fullScans;
    Counter onChipChecks;

  private:
    /** One remembered bus transaction for the replay log. */
    struct TxnRecord
    {
        Cycle when;
        MBusOpType type;
        MBusOpKind kind;
        Addr addr;
        unsigned words;
        std::array<Word, maxBurstWords> data;
        bool mshared;
        bool updatesMemory;
        const MBusClient *by;  ///< named only when a diagnostic is built
    };

    void busCommit(const MBusTransaction &txn);
    void busSettled(const MBusTransaction &txn);

    /** Add the lines spanning `words` words at `addr` to the set the
     *  next periodic scan checks. */
    void markDirty(Addr addr, unsigned words);
    /** The periodic scan: check the dirty lines, then forget those
     *  whose verdict cannot change until they are touched again. */
    void scanDirtyLines(std::vector<std::string> &violations);

    Addr lineBaseOf(Addr addr) const;
    std::string describeLine(Addr line_base) const;
    std::string replayFor(Addr line_base) const;
    [[noreturn]] void fail(Addr addr, const std::string &what);

    Simulator &sim;
    const MainMemory &memory;
    ProtocolKind kind;
    CheckerConfig cfg;

    GoldenMemory golden;
    InvariantScanner scanner;
    std::vector<const Cache *> caches;

    /** Ring of the last cfg.replayDepth transactions: replayCount
     *  records, the newest just before replayNext. */
    std::vector<TxnRecord> replay;
    std::size_t replayNext = 0;
    std::size_t replayCount = 0;

    /**
     * Line bases whose cache states, cached data, memory or oracle
     * value may have changed since the last periodic scan (unsorted,
     * and one entry per mark until the scan sorts and dedupes it, so
     * it grows with one period's traffic).  Fed by every settled bus
     * transaction, by writeSerialized, and by the race window (see
     * scanDirtyLines).  Nothing else can break an invariant on a line
     * that passed: a clean eviction on fill only removes a non-owning
     * holder, which adds no state, owner, holder or value and leaves
     * I5's owner set alone; and FireflySystem::offlineProcessor's
     * flushFunctional writes back only lines that are in the set or
     * passed unchanged - whose owner held the oracle value, so memory
     * holds it once the line is uncached, as checkLine's I5 rule
     * requires.  DESIGN.md section 9 has the full argument.
     */
    std::vector<Addr> dirtyLines;

    /** Oracle snapshots backing the tags-only on-chip caches. */
    std::map<const OnChipCache *,
             std::unordered_map<Addr, std::vector<Word>>> onchipLines;

    StatGroup statGroup;
};

} // namespace firefly::check

#endif // FIREFLY_CHECK_COHERENCE_CHECKER_HH
