/**
 * @file
 * Deliberately broken coherence protocols, for proving the checker
 * has teeth.  Each is a copy of the real Firefly table with exactly
 * one rule edited; the checker tests and the fuzzer assert that the
 * resulting incoherence is caught with a line-level diagnostic.  The
 * checker keeps judging by the real Firefly rules.
 */

#ifndef FIREFLY_TESTS_BROKEN_PROTOCOLS_HH
#define FIREFLY_TESTS_BROKEN_PROTOCOLS_HH

#include "cache/protocol.hh"

namespace firefly::test
{

/**
 * Skips the MShared update on fills: every miss installs the line in
 * the exclusive clean state even when the bus said other caches hold
 * it.  Violates exclusivity (I3) as soon as a line is actually
 * shared.
 */
inline const ProtocolTable kIgnoreMShared = [] {
    ProtocolTable t = makeProtocol(ProtocolKind::Firefly);
    t.fillState[true] = t.fillState[false];
    return t;
}();

/**
 * Ignores snooped bus writes: foreign write-throughs, updates, and
 * DMA writes never reach this cache's copies.  Stale data survives
 * in the cache, violating agreement (I4) on the first lost write.
 */
inline const ProtocolTable kDeafToWrites = [] {
    ProtocolTable t = makeProtocol(ProtocolKind::Firefly);
    for (std::size_t s = 0; s < numLineStates; ++s) {
        for (const SnoopEvent e :
             {SnoopEvent::Write, SnoopEvent::PartialWrite,
              SnoopEvent::Update, SnoopEvent::SquashedWrite}) {
            SnoopRule &rule = t.snoop[s][static_cast<std::size_t>(e)];
            if (rule.legal)
                rule = {true, static_cast<LineState>(s), false, false};
        }
    }
    return t;
}();

/**
 * Treats a write hit on a Shared line as Silent: the writer turns
 * Dirty without a bus transaction, so every other cached copy goes
 * stale.  No transaction touches the line, so the per-transaction
 * line scan never looks at it; the periodic scan finds the second
 * holder of an exclusive line (I3) and the disagreeing copies (I4).
 */
inline const ProtocolTable kSilentSharedWrite = [] {
    ProtocolTable t = makeProtocol(ProtocolKind::Firefly);
    t.writeHit[static_cast<std::size_t>(LineState::Shared)] =
        WriteHitAction::Silent;
    return t;
}();

} // namespace firefly::test

#endif // FIREFLY_TESTS_BROKEN_PROTOCOLS_HH
