/**
 * @file
 * Protocol state-invariant scanner.
 *
 * Walks every attached cache's copy of a line and checks the
 * invariants the coherence protocols promise (DESIGN.md section 9
 * tabulates them per protocol):
 *
 *   I1  legality     - every line state is one the protocol uses;
 *   I2  single owner - at most one cache holds the line in an owning
 *                      (write-back) state: Dirty or SharedDirty;
 *   I3  exclusivity  - a line in an exclusive state (Valid = believed
 *                      sole holder, Dirty = modified exclusive) has
 *                      no copy in any other cache.  This is the
 *                      operational form of "the MShared wire agrees
 *                      with residency": a cache only reverts to an
 *                      exclusive state when MShared said nobody else
 *                      holds the line;
 *   I4  agreement    - all cached copies of a word are identical and
 *                      equal the oracle's visible value;
 *   I5  memory       - when no owner exists, main memory holds the
 *                      visible value (Firefly/MESI/WTI shared copies
 *                      are clean, so this also checks "shared lines
 *                      match main memory"; under Berkeley/Dragon an
 *                      owner suspends the rule for its line).
 *
 * The scanner only reads simulator state (const caches, memory
 * peek), so scanning cannot perturb a run.
 */

#ifndef FIREFLY_CHECK_INVARIANT_SCANNER_HH
#define FIREFLY_CHECK_INVARIANT_SCANNER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "check/golden_memory.hh"

namespace firefly::check
{

/** Walks cache states and reports invariant violations as text. */
class InvariantScanner
{
  public:
    /** Most caches one scanner watches (bounds checkLine's inline
     *  holder storage; a Firefly has at most 16 processors). */
    static constexpr std::size_t maxCaches = 32;

    InvariantScanner(ProtocolKind kind, const MainMemory &memory)
        : kind(kind), memory(memory)
    {
    }

    void addCache(const Cache *cache);

    /** Bytes per cache line (one word before any cache is added). */
    Addr lineBytes() const;

    /** True if `state` is one the protocol can legally produce. */
    bool stateLegal(LineState state) const;

    /**
     * Check every invariant for the line containing `addr`;
     * violations are appended to `out` as one description each.
     */
    void checkLine(Addr addr, const GoldenMemory &oracle, Cycle now,
                   std::vector<std::string> &out) const;

    /**
     * Check the lines whose bases are in `bases` (ascending, no
     * duplicates): checkLine for each line some cache holds, then
     * memory-vs-oracle for the tracked words of the others.  Reports
     * exactly what fullScan reports about those lines, in the same
     * order.
     */
    void checkLines(const std::vector<Addr> &bases,
                    const GoldenMemory &oracle, Cycle now,
                    std::vector<std::string> &out) const;

    /**
     * Check every valid line in every cache, plus memory-vs-oracle
     * for tracked words no cache holds.
     */
    void fullScan(const GoldenMemory &oracle, Cycle now,
                  std::vector<std::string> &out) const;

  private:
    struct Holder
    {
        const Cache *cache;
        const CacheLine *line;
    };

    bool resident(Addr line_base) const;

    ProtocolKind kind;
    const MainMemory &memory;
    std::vector<const Cache *> caches;
};

} // namespace firefly::check

#endif // FIREFLY_CHECK_INVARIANT_SCANNER_HH
