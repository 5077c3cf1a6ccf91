/**
 * @file
 * Deliberately broken coherence protocols, for proving the checker
 * has teeth.  Each wrapper delegates to a real protocol and breaks
 * exactly one rule; the checker tests and the fuzzer assert that the
 * resulting incoherence is caught with a line-level diagnostic.
 */

#ifndef FIREFLY_TESTS_BROKEN_PROTOCOLS_HH
#define FIREFLY_TESTS_BROKEN_PROTOCOLS_HH

#include <memory>
#include <utility>

#include "cache/protocol.hh"

namespace firefly::test
{

/** Forwards every decision to a wrapped real protocol. */
class DelegatingProtocol : public CoherenceProtocol
{
  public:
    explicit DelegatingProtocol(std::unique_ptr<CoherenceProtocol> p)
        : inner(std::move(p))
    {
    }

    const char *name() const override { return inner->name(); }

    WriteHitAction
    writeHit(const CacheLine &line) const override
    {
        return inner->writeHit(line);
    }

    WriteMissAction
    writeMiss(unsigned line_words) const override
    {
        return inner->writeMiss(line_words);
    }

    LineState
    fillState(bool mshared) const override
    {
        return inner->fillState(mshared);
    }

    LineState
    afterWriteThrough(bool mshared) const override
    {
        return inner->afterWriteThrough(mshared);
    }

    LineState ownedState() const override { return inner->ownedState(); }

    bool
    fillsUpdateMemory() const override
    {
        return inner->fillsUpdateMemory();
    }

    SnoopReply
    snoopProbe(const CacheLine &line,
               const MBusTransaction &txn) const override
    {
        return inner->snoopProbe(line, txn);
    }

    void
    snoopApply(CacheLine &line, const MBusTransaction &txn,
               unsigned line_words) const override
    {
        inner->snoopApply(line, txn, line_words);
    }

  protected:
    std::unique_ptr<CoherenceProtocol> inner;
};

/**
 * Skips the MShared update on fills: every miss installs the line in
 * the exclusive clean state even when the bus said other caches hold
 * it.  Violates exclusivity (I3) as soon as a line is actually
 * shared.
 */
class IgnoreMSharedProtocol : public DelegatingProtocol
{
  public:
    using DelegatingProtocol::DelegatingProtocol;

    LineState fillState(bool) const override { return LineState::Valid; }
};

/**
 * Ignores snooped bus writes: foreign write-throughs, updates, and
 * DMA writes never reach this cache's copies.  Stale data survives
 * in the cache, violating agreement (I4) on the first lost write.
 */
class DeafToWritesProtocol : public DelegatingProtocol
{
  public:
    using DelegatingProtocol::DelegatingProtocol;

    void
    snoopApply(CacheLine &line, const MBusTransaction &txn,
               unsigned line_words) const override
    {
        if (txn.type == MBusOpType::MWrite)
            return;  // the lost update
        DelegatingProtocol::snoopApply(line, txn, line_words);
    }
};

/**
 * Treats a write hit on a Shared line as Silent: the writer turns
 * Dirty without a bus transaction, so every other cached copy goes
 * stale.  No transaction touches the line, so the per-transaction
 * line scan never looks at it; the periodic scan finds the second
 * holder of an exclusive line (I3) and the disagreeing copies (I4).
 */
class SilentSharedWriteProtocol : public DelegatingProtocol
{
  public:
    using DelegatingProtocol::DelegatingProtocol;

    WriteHitAction
    writeHit(const CacheLine &line) const override
    {
        if (line.state == LineState::Shared)
            return WriteHitAction::Silent;  // the missing broadcast
        return DelegatingProtocol::writeHit(line);
    }
};

} // namespace firefly::test

#endif // FIREFLY_TESTS_BROKEN_PROTOCOLS_HH
