#include "cache/protocol.hh"

#include "sim/logging.hh"

namespace firefly
{

const char *
toString(LineState state)
{
    switch (state) {
      case LineState::Invalid: return "Invalid";
      case LineState::Valid: return "Valid";
      case LineState::Dirty: return "Dirty";
      case LineState::Shared: return "Shared";
      case LineState::SharedDirty: return "SharedDirty";
    }
    return "?";
}

const char *
toString(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::Firefly: return "Firefly";
      case ProtocolKind::Dragon: return "Dragon";
      case ProtocolKind::WriteThroughInvalidate: return "WTI";
      case ProtocolKind::Berkeley: return "Berkeley";
      case ProtocolKind::Mesi: return "MESI";
    }
    return "?";
}

namespace
{

constexpr LineState I = LineState::Invalid;
constexpr LineState V = LineState::Valid;
constexpr LineState D = LineState::Dirty;
constexpr LineState S = LineState::Shared;
constexpr LineState SD = LineState::SharedDirty;

constexpr WriteHitAction Illegal = WriteHitAction::Illegal;
constexpr WriteHitAction Silent = WriteHitAction::Silent;
constexpr WriteHitAction WriteThrough = WriteHitAction::WriteThrough;
constexpr WriteHitAction Update = WriteHitAction::Update;
constexpr WriteHitAction Invalidate = WriteHitAction::Invalidate;

/** Snoop responses: go to a state, supplying the read data, or
 *  merging the written words on the way. */
constexpr SnoopRule to(LineState s) { return {true, s, false, false}; }
constexpr SnoopRule supply(LineState s) { return {true, s, true, false}; }
constexpr SnoopRule merge(LineState s) { return {true, s, false, true}; }
constexpr SnoopRule never{};

// Snoop rows list the events in SnoopEvent order: Read, ReadOwned,
// Invalidate, Write, PartialWrite, Update, SquashedWrite.  A cache
// never snoops its own Invalid lines, so row I is always empty.

/**
 * Firefly (paper Section 5.1, Figure 3): conditional write-through.
 * Writes to non-shared lines are write-back; writes to shared lines
 * go through to memory and every other holder in one bus write, and
 * the MShared reply on each write-through decides whether the line
 * stays Shared or reverts to Valid ("last-sharer reversion").  Every
 * holder drives read data, since shared copies are clean and a dirty
 * copy is exclusive; memory captures a dirty supplier's data, so the
 * supplier drops to Shared.  A snooped write leaves the copy clean,
 * except a partial (DMA) write into a Dirty line: the unwritten
 * words are still owed to memory.  Longword write misses skip the
 * fill when the write covers the whole line.
 */
constexpr ProtocolTable kFirefly{
    .name = "Firefly",
    .legal = {V, D, S},
    .exclusive = {V, D},
    //           I        V       D       S             SD
    .writeHit = {Illegal, Silent, Silent, WriteThrough, Illegal},
    .writeMiss = {WriteMissAction::WriteThroughAllocate,
                  WriteMissAction::FillThenWriteHit},
    .fillState = {V, S},
    .afterWriteThrough = {V, S},
    .ownedState = D,
    .fillsUpdateMemory = true,
    .snoop = {{
        {},
        {supply(S), never, never, merge(S), merge(S), merge(S), merge(S)},
        {supply(S), never, never, merge(S), merge(D), merge(S), merge(S)},
        {supply(S), never, never, merge(S), merge(S), merge(S), merge(S)},
        {},
    }},
};

/**
 * Xerox Dragon (the paper's closest relative): update-based with
 * dynamic sharing detection, but a write to a shared line updates
 * only the other caches.  The last writer owns the line as Sm
 * (SharedDirty) and memory may be stale, so only an owner supplies
 * reads.  States: E (Valid), Sc (Shared), Sm (SharedDirty), M
 * (Dirty).  A memory write covering the line makes every copy clean;
 * a partial one leaves an owner owing the rest, but never exclusive.
 */
constexpr ProtocolTable kDragon{
    .name = "Dragon",
    .legal = {V, D, S, SD},
    .exclusive = {V, D},
    //           I        V       D       S       SD
    .writeHit = {Illegal, Silent, Silent, Update, Update},
    .writeMiss = {WriteMissAction::FillThenWriteHit,
                  WriteMissAction::FillThenWriteHit},
    .fillState = {V, S},
    .afterWriteThrough = {D, SD},
    .ownedState = D,
    .fillsUpdateMemory = false,
    .snoop = {{
        {},
        {to(S), never, never, merge(S), merge(S), merge(S), merge(V)},
        {supply(SD), never, never, merge(S), merge(SD), merge(S), merge(D)},
        {to(S), never, never, merge(S), merge(S), merge(S), merge(S)},
        {supply(SD), never, never, merge(S), merge(SD), merge(S),
         merge(SD)},
    }},
};

/**
 * Write-through with invalidation, the paper's strawman: "all writes
 * are sent to the main memory bus.  Whenever a cache observes a write
 * directed to a line it contains, it invalidates its copy."  Lines
 * are only Invalid or Valid, and Valid is freely shared; memory is
 * always current, so reads are answered by memory.
 */
constexpr ProtocolTable kWti{
    .name = "WTI",
    .legal = {V},
    .exclusive = {},
    //           I        V             D        S        SD
    .writeHit = {Illegal, WriteThrough, Illegal, Illegal, Illegal},
    .writeMiss = {WriteMissAction::WriteThroughNoAllocate,
                  WriteMissAction::WriteThroughNoAllocate},
    .fillState = {V, V},
    .afterWriteThrough = {V, V},
    .ownedState = D,
    .fillsUpdateMemory = true,
    .snoop = {{
        {},
        {to(V), to(V), to(V), to(I), to(I), to(I), to(I)},
        {},
        {},
        {},
    }},
};

/**
 * Berkeley Ownership (Katz et al.): a cache must acquire ownership,
 * invalidating every other copy, before it writes.  The owner
 * supplies readers (Dirty becomes owned-shared SharedDirty) and
 * writes the line back; memory is stale while an owner exists.
 * There is no exclusive-clean state: fills install unowned Shared.
 * A memory write drops every copy, except a partial (DMA) write into
 * an owned line: the owner merges it and still owes the rest.
 */
constexpr ProtocolTable kBerkeley{
    .name = "Berkeley",
    .legal = {D, S, SD},
    .exclusive = {D},
    //           I        V        D       S           SD
    .writeHit = {Illegal, Illegal, Silent, Invalidate, Invalidate},
    .writeMiss = {WriteMissAction::ReadOwned, WriteMissAction::ReadOwned},
    .fillState = {S, S},
    .afterWriteThrough = {S, S},
    .ownedState = D,
    .fillsUpdateMemory = false,
    .snoop = {{
        {},
        {},
        {supply(SD), supply(I), to(I), to(I), merge(D), to(D), to(D)},
        {to(S), to(I), to(I), to(I), to(I), to(S), to(S)},
        {supply(SD), supply(I), to(I), to(I), merge(SD), to(SD), to(SD)},
    }},
};

/**
 * MESI/Illinois, the textbook write-back invalidation protocol.  A
 * modified owner supplies snooped reads and memory captures the data,
 * so shared copies are always clean.  Writes to shared lines
 * invalidate other copies (BusUpgr, modelled as MInvalidate); write
 * misses fetch with intent to modify (BusRdX, as MReadOwned).  A
 * memory write invalidates, except a partial (DMA) write into a
 * Modified line, which merges and keeps ownership.
 */
constexpr ProtocolTable kMesi{
    .name = "MESI",
    .legal = {V, D, S},
    .exclusive = {V, D},
    //           I        V       D       S           SD
    .writeHit = {Illegal, Silent, Silent, Invalidate, Illegal},
    .writeMiss = {WriteMissAction::ReadOwned, WriteMissAction::ReadOwned},
    .fillState = {V, S},
    .afterWriteThrough = {S, S},
    .ownedState = D,
    .fillsUpdateMemory = true,
    .snoop = {{
        {},
        {to(S), to(I), to(I), to(I), to(I), to(V), to(V)},
        {supply(S), supply(I), to(I), to(I), merge(D), to(D), to(D)},
        {to(S), to(I), to(I), to(I), to(I), to(S), to(S)},
        {},
    }},
};

/**
 * True if every state a reachable entry produces is legal for the
 * protocol or Invalid, and no entry is written for a state the
 * protocol never uses.  A Silent write hit produces Dirty (the engine
 * hard-codes it); ownedState is reachable only through a ReadOwned
 * miss or an Invalidate hit.
 */
constexpr bool
closed(const ProtocolTable &t)
{
    const auto ok = [&t](LineState s) {
        return s == LineState::Invalid || t.legal.contains(s);
    };
    bool owns = false;
    for (const WriteMissAction miss : t.writeMiss)
        owns |= miss == WriteMissAction::ReadOwned;
    for (std::size_t i = 0; i < numLineStates; ++i) {
        const bool used = t.legal.contains(static_cast<LineState>(i));
        const WriteHitAction hit = t.writeHit[i];
        if (hit != Illegal && !used)
            return false;
        if (hit == Silent && !ok(D))
            return false;
        owns |= hit == Invalidate;
        for (const SnoopRule &rule : t.snoop[i]) {
            if (rule.legal && (!used || !ok(rule.next)))
                return false;
        }
    }
    for (const LineState s : t.fillState)
        if (!ok(s))
            return false;
    for (const LineState s : t.afterWriteThrough)
        if (!ok(s))
            return false;
    return !owns || ok(t.ownedState);
}

static_assert(closed(kFirefly), "Firefly table leaves its states");
static_assert(closed(kDragon), "Dragon table leaves its states");
static_assert(closed(kWti), "WTI table leaves its states");
static_assert(closed(kBerkeley), "Berkeley table leaves its states");
static_assert(closed(kMesi), "MESI table leaves its states");

} // namespace

const ProtocolTable &
makeProtocol(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::Firefly: return kFirefly;
      case ProtocolKind::Dragon: return kDragon;
      case ProtocolKind::WriteThroughInvalidate: return kWti;
      case ProtocolKind::Berkeley: return kBerkeley;
      case ProtocolKind::Mesi: return kMesi;
    }
    panic("unknown protocol kind");
}

} // namespace firefly
