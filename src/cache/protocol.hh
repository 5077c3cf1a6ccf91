/**
 * @file
 * Coherence protocols as transition tables.
 *
 * The cache engine (cache.hh) owns the mechanics - lookup, victim
 * write-back, bus sequencing, data movement - and reads every policy
 * decision from a ProtocolTable: plain data, one constexpr instance
 * per protocol (protocol.cc).  The invariant scanner (src/check/)
 * derives the states it accepts from the same tables, so the engine
 * and the checker share one description of each protocol.  Five
 * protocols are provided:
 *
 *   - Firefly (the paper's contribution): update-based, conditional
 *     write-through, dynamic sharing detection via MShared;
 *   - Dragon (Xerox; the paper cites it as the closest relative):
 *     update-based with a dirty-sharing owner, memory not updated;
 *   - write-through with invalidation (the paper's strawman);
 *   - Berkeley Ownership (cited baseline): invalidation + ownership;
 *   - MESI/Illinois: the textbook invalidation protocol.
 *
 * The five LineState values are shared across protocols with
 * per-protocol meaning (documented on each enumerator).
 */

#ifndef FIREFLY_CACHE_PROTOCOL_HH
#define FIREFLY_CACHE_PROTOCOL_HH

#include <array>
#include <cstddef>
#include <initializer_list>

#include "mbus/mbus.hh"
#include "sim/types.hh"

namespace firefly
{

/** Coherence state of one cache line. */
enum class LineState : std::uint8_t
{
    Invalid,
    /** Clean, believed exclusive.  Firefly "Valid"; MESI E; Dragon E;
     *  WTI valid.  Unused by Berkeley. */
    Valid,
    /** Modified, exclusive.  Firefly/Berkeley "Dirty"; MESI M;
     *  Dragon M. */
    Dirty,
    /** Clean (w.r.t. the current owner), possibly in other caches.
     *  Firefly "Shared"; MESI S; Dragon Sc; Berkeley unowned-shared. */
    Shared,
    /** Modified and possibly shared; this cache owns the line.
     *  Berkeley owned-shared; Dragon Sm.  Unused by the others. */
    SharedDirty,
};

constexpr std::size_t numLineStates = 5;

const char *toString(LineState state);

/** True if victimising a line in this state requires a write-back. */
constexpr bool
needsWriteback(LineState state)
{
    return state == LineState::Dirty || state == LineState::SharedDirty;
}

/** What to do on a processor write that hits. */
enum class WriteHitAction : std::uint8_t
{
    Illegal,       ///< the protocol never holds a line in this state
    Silent,        ///< write into the line, mark Dirty, no bus op
    WriteThrough,  ///< MWrite updating memory and sharing caches
    Update,        ///< MWrite updating caches only (Dragon)
    Invalidate,    ///< MInvalidate, then write locally as Dirty
};

/** What to do on a processor write that misses. */
enum class WriteMissAction : std::uint8_t
{
    /** Firefly longword optimisation: write through and install the
     *  line clean, skipping the fill read (only if the write covers
     *  the whole line, i.e. 4-byte lines). */
    WriteThroughAllocate,
    /** Write through without allocating (write-through-invalidate). */
    WriteThroughNoAllocate,
    /** Fill first, then apply the write-hit policy. */
    FillThenWriteHit,
    /** Read with intent to modify (MReadOwned), install Dirty. */
    ReadOwned,
};

/**
 * Another agent's bus transaction as a snooping cache classifies it.
 * MWrite splits four ways because the protocols treat a cache-only
 * update, a write-back squashed on the bus, and memory writes that
 * cover all or part of the line differently.
 */
enum class SnoopEvent : std::uint8_t
{
    Read,           ///< MRead (DMA reads never reach the table)
    ReadOwned,      ///< MReadOwned
    Invalidate,     ///< MInvalidate
    Write,          ///< MWrite updating memory, covering the line
    PartialWrite,   ///< MWrite updating memory, part of the line
    Update,         ///< Dragon update: caches only, memory untouched
    SquashedWrite,  ///< victim write-back whose line died in waiting
};

constexpr std::size_t numSnoopEvents = 7;

/**
 * Classify `txn` for a cache with `line_words`-word lines.  Coverage
 * is judged by length alone: every transaction the bus carries is a
 * single word or a whole line from its base (Cache::snoopRule panics
 * otherwise), so it covers the line exactly when it is not shorter.
 * Only Dragon issues updates (one word each), and only a write-back
 * clears updatesMemory, always on a whole line.
 */
constexpr SnoopEvent
snoopEvent(const MBusTransaction &txn, unsigned line_words)
{
    switch (txn.type) {
      case MBusOpType::MRead: return SnoopEvent::Read;
      case MBusOpType::MReadOwned: return SnoopEvent::ReadOwned;
      case MBusOpType::MInvalidate: return SnoopEvent::Invalidate;
      case MBusOpType::MWrite: break;
    }
    if (txn.kind == MBusOpKind::Update)
        return SnoopEvent::Update;
    if (!txn.updatesMemory)
        return SnoopEvent::SquashedWrite;
    return txn.words < line_words ? SnoopEvent::PartialWrite
                                  : SnoopEvent::Write;
}

/** A snooping cache's response to one (line state, event) pair. */
struct SnoopRule
{
    bool legal = false;  ///< false: impossible, the engine panics
    LineState next = LineState::Invalid;
    bool supply = false;  ///< drive the read data (memory inhibited)
    bool merge = false;   ///< copy the written words into the line
};

/** A set of line states. */
class StateSet
{
  public:
    constexpr StateSet(std::initializer_list<LineState> states)
    {
        for (const LineState s : states)
            bits |= 1u << static_cast<unsigned>(s);
    }

    constexpr bool
    contains(LineState s) const
    {
        return (bits >> static_cast<unsigned>(s)) & 1u;
    }

  private:
    unsigned bits = 0;
};

/**
 * One coherence protocol, written down once as data.  Arrays indexed
 * by state run Invalid, Valid, Dirty, Shared, SharedDirty; arrays
 * indexed by MShared run clear, asserted.
 */
struct ProtocolTable
{
    const char *name;

    // --- invariants (DESIGN.md section 9) -------------------------------
    /** I1: states the protocol can leave a valid line in. */
    StateSet legal;
    /** I3: states that claim no other cache holds the line. */
    StateSet exclusive;

    // --- processor side -------------------------------------------------
    std::array<WriteHitAction, numLineStates> writeHit;
    /** Write-miss action for one-word lines, then for wider lines. */
    std::array<WriteMissAction, 2> writeMiss;
    /** State a line is installed in after an MRead fill. */
    std::array<LineState, 2> fillState;
    /** State after a write-through or update completes. */
    std::array<LineState, 2> afterWriteThrough;
    /** State after MReadOwned or MInvalidate completes. */
    LineState ownedState;
    /**
     * Should main memory capture cache-supplied fill data?  True for
     * protocols whose shared copies are always clean (Firefly, MESI/
     * Illinois, WTI); false where an owner retains responsibility
     * (Berkeley, Dragon).
     */
    bool fillsUpdateMemory;

    // --- snoop side -----------------------------------------------------
    /** Response to another agent's transaction, by state and event. */
    std::array<std::array<SnoopRule, numSnoopEvents>, numLineStates>
        snoop;

    constexpr WriteHitAction
    onWriteHit(LineState state) const
    {
        return writeHit[static_cast<std::size_t>(state)];
    }

    constexpr const SnoopRule &
    onSnoop(LineState state, SnoopEvent event) const
    {
        return snoop[static_cast<std::size_t>(state)]
                    [static_cast<std::size_t>(event)];
    }
};

/** Identifiers for the protocol tables. */
enum class ProtocolKind : std::uint8_t
{
    Firefly,
    Dragon,
    WriteThroughInvalidate,
    Berkeley,
    Mesi,
};

const char *toString(ProtocolKind kind);

/** The table of a protocol. */
const ProtocolTable &makeProtocol(ProtocolKind kind);

} // namespace firefly

#endif // FIREFLY_CACHE_PROTOCOL_HH
