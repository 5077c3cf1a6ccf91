/**
 * @file
 * The direct-mapped snoopy cache engine.
 *
 * One Cache sits between a processor (or the DMA path, for the I/O
 * processor's cache) and the MBus.  It owns the mechanics - lookup,
 * victim write-back ordering, bus transaction sequencing, data
 * movement, tag-store contention - and reads every coherence policy
 * decision from its protocol's ProtocolTable.
 *
 * Geometry matches the paper: 16 KB with 4-byte lines (4096 lines) on
 * the MicroVAX boards, 64 KB (16384 lines) on the CVAX boards, always
 * direct mapped.  Line sizes above 4 bytes are supported for the
 * footnote-4 ablation.
 *
 * Timing notes:
 *  - The tag store is single ported: a snoop probe in bus cycle C
 *    makes a CPU access attempted in C retry one processor tick later
 *    (the paper's SP term).  The bus probes only the caches whose
 *    tags hold the line (MBus::attachCache reads the tag array
 *    below) but stamps the probe cycle for all, so the contention is
 *    unchanged.
 *  - The cache handles one access at a time; misses occupy it until
 *    the bus sequence completes.  DMA accesses queue behind CPU
 *    accesses and vice versa.
 *
 * The queue head plus the transaction on the bus is all a cache has
 * in flight: no separate sequencing state shadows the transaction.
 * Beyond a hit, an access is one MBus operation (paper Figures 3 and
 * 4), preceded by a dirty victim's MWrite when its slot holds one;
 * the completion dispatches on the transaction's kind, and a victim
 * write-back's completion re-dispatches the head.
 *
 * Storage is structure-of-arrays: a tag array (the base of each valid
 * line, kNoLine for an invalid one), a state array and the data, one
 * word per line on the paper's geometry.  A line is Invalid exactly
 * when its tag is kNoLine, so a hit is one compare of the tag with
 * the address's line base.
 */

#ifndef FIREFLY_CACHE_CACHE_HH
#define FIREFLY_CACHE_CACHE_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/coherence_observer.hh"
#include "cache/mem_ref.hh"
#include "cache/protocol.hh"
#include "mbus/mbus.hh"
#include "sim/simulator.hh"
#include "sim/small_function.hh"
#include "sim/stats.hh"

namespace firefly
{

/** A direct-mapped coherent cache on the MBus. */
class Cache : public MBusClient
{
  public:
    /** Cache geometry. */
    struct Geometry
    {
        Addr cacheBytes = 16 * 1024;  ///< capacity: 2^k lines
        Addr lineBytes = 4;           ///< line size (power of two)
    };

    /** Completion callback; receives the read data (0 for writes).
     *  A SmallFunction so the common captures (a `this` pointer plus
     *  a MemRef) never heap-allocate on the per-reference path. */
    using Callback = SmallFunction<void(Word), 48>;

    enum class AccessOutcome
    {
        Hit,           ///< satisfied synchronously
        Pending,       ///< callback will fire when done
        RetryTagBusy,  ///< tag store taken by a snoop; retry next tick
    };

    struct AccessResult
    {
        AccessOutcome outcome;
        Word data = 0;
    };

    /** `protocol` must outlive the cache (makeProtocol's tables are
     *  static). */
    Cache(Simulator &sim, MBus &bus, const ProtocolTable &protocol,
          Geometry geom, std::string name);

    /**
     * Processor access.  Hits are satisfied synchronously; anything
     * needing the bus returns Pending and fires `cb` on completion.
     * Defined inline below: the read-hit case is the single hottest
     * path in the simulator and completes without an out-of-line
     * call.
     */
    AccessResult cpuAccess(const MemRef &ref, Callback cb);

    /**
     * DMA access through this cache (I/O processor path).  Always
     * asynchronous; misses never allocate (paper Section 5).
     */
    void dmaAccess(const MemRef &ref, Callback cb);

    /**
     * Write all dirty lines to memory and invalidate everything,
     * bypassing timing.  Used by tests and end-of-run verification.
     */
    void flushFunctional();

    // --- introspection --------------------------------------------------
    /** No queued CPU/DMA accesses and no bus operation in flight.
     *  Used when draining a processor for offlining. */
    bool idle() const { return queue.empty() && !engineBusy; }
    const std::string &name() const { return _name; }
    unsigned lineWords() const { return _lineWords; }
    unsigned numLines() const { return tag.size(); }

    /** A read-only view of one line, good until the cache changes. */
    struct LineView
    {
        LineState state;
        Addr base;         ///< kNoLine if the line is invalid
        const Word *data;  ///< lineWords() words

        bool valid() const { return state != LineState::Invalid; }
    };

    /** Line `index` (0 .. numLines()-1), for whole-cache scans. */
    LineView
    line(std::size_t index) const
    {
        return {state[index], tag[index], &data[index * _lineWords]};
    }
    /** The line the address maps to (valid or not). */
    LineView lineAt(Addr byte_addr) const { return line(indexOf(byte_addr)); }
    /**
     * Attach a coherence checker (nullptr detaches).  The observer
     * is called at every load value binding and write serialization
     * point; with none attached every hook site is a null check.
     */
    void setCoherenceObserver(CoherenceObserver *observer)
    {
        checkObs = observer;
    }
    /** True if the address is present in a valid line. */
    bool holds(Addr byte_addr) const;
    /** Fraction of valid lines that need write-back (paper's D). */
    double dirtyFraction() const;

    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

    // --- MBusClient -----------------------------------------------------
    std::string busClientName() const override { return _name; }
    SnoopReply snoopProbe(const MBusTransaction &txn) override;
    void snoopSupplyData(const MBusTransaction &txn, Word *out) override;
    void snoopComplete(const MBusTransaction &txn) override;
    void transactionDone(const MBusTransaction &txn) override;
    void transactionGranted(MBusTransaction &txn) override;

    // Statistics counters, public so benches can read them directly.
    Counter refsInstr, refsRead, refsWrite;
    Counter readHits, readMisses, writeHits, writeMisses;
    Counter fills;             ///< MBus reads issued (incl. MReadOwned)
    Counter wtMshared;         ///< write-throughs that received MShared
    Counter wtNoMshared;       ///< write-throughs that did not
    Counter victimWrites;
    Counter updatesSent;       ///< Dragon cache-to-cache updates
    Counter invalidatesSent;   ///< MInvalidate ops issued
    Counter tagBusyRetries;
    Counter invalidationsReceived;
    Counter updatesReceived;
    Counter dmaReads, dmaWrites, dmaReadMisses;

  private:
    struct PendingAccess
    {
        MemRef ref;
        bool isDma = false;
        Callback cb;
        /** Firefly write-allocate-through pending install. */
        bool installOnWriteThrough = false;
        /** Reference already counted in the stats. */
        bool counted = false;
    };

    Addr lineBaseOf(Addr byte_addr) const;
    std::size_t indexOf(Addr byte_addr) const;
    /** The word of `byte_addr` in line `index` (which must hold it or
     *  be about to). */
    Word &wordAt(std::size_t index, Addr byte_addr);

    /** The one writer of tag and state: an Invalid line gets tag
     *  kNoLine, any other `base`. */
    void setLine(std::size_t index, Addr base, LineState s);

    /** Record a CPU reference in the stat counters. */
    void countRef(const MemRef &ref, bool hit);

    /** Everything cpuAccess's inline fast path cannot handle: writes,
     *  misses, tag contention, queueing behind earlier accesses. */
    AccessResult cpuAccessSlow(const MemRef &ref, Callback cb);

    /** Emit a line state-transition trace event (old -> new, cause).
     *  A no-op unless a sink is attached and the state changed. */
    void traceLine(Addr line_base, LineState old_state,
                   LineState new_state, const char *cause);

    /** Complete a CPU write that hits a line whose protocol writes
     *  it silently (no bus).  True if done. */
    bool trySilentWriteHit(const MemRef &ref);

    /** Start the head access: finish a hit, or put its victim
     *  write-back or its own operation on the bus (engine idle). */
    void dispatchHead();
    void finishHead(Word value);

    /** Put this cache's one transaction on the bus; `src` (null for
     *  none) holds the `words` words an MWrite drives. */
    void issue(MBusOpType type, MBusOpKind kind, Addr addr,
               unsigned words, bool updates_memory, const Word *src);

    /** The write-hit action for a resident line; panics if the
     *  protocol never writes a line in its state. */
    WriteHitAction writeHitAction(LineState s) const;
    /** Apply the write-hit policy to resident line `index` (head
     *  access). */
    void applyWriteHit(std::size_t index, const MemRef &ref);
    /**
     * Write `ref`'s word into the line holding it and move the line
     * to `next`, tracing `cause`; nothing if a snoop took the line.
     * A write that `serializes` here (the line is exclusive, so no
     * bus transaction carries the value) is reported to the
     * coherence checker.
     */
    void writeHeld(const MemRef &ref, LineState next, const char *cause,
                   bool serializes = false);
    /** The snoop rule for another agent's transaction on held line
     *  `index`; panics if the protocol never sees it. */
    const SnoopRule &snoopRule(std::size_t index,
                               const MBusTransaction &txn) const;

    /** Make line `index` hold the line of `byte_addr` in state `s`
     *  (its data is the caller's to write), tracing the clean line it
     *  evicts and the install as `cause`. */
    void install(std::size_t index, Addr byte_addr, LineState s,
                 const char *cause);

    /** The tag store is taken by a snoop probe this cycle. */
    bool tagBusy() const { return bus.probedAt(sim.now(), this); }

    Simulator &sim;
    MBus &bus;
    const ProtocolTable &proto;
    std::string _name;

    unsigned _lineWords;
    Addr lineBytes;
    /** Sized once at construction and never resized: the bus reads
     *  `tag` through a pointer (MBus::attachCache). */
    std::vector<Addr> tag;          ///< line base, or kNoLine
    std::vector<LineState> state;
    std::vector<Word> data;         ///< numLines() x lineWords()
    /** Indexing by shift and mask, not division: it runs on every
     *  access and snoop. */
    unsigned lineShift = 0;

    /** FIFO of pending accesses, popped by erasing the front: it
     *  holds one or two in practice, and a deque would allocate a
     *  node as it walks forward. */
    std::vector<PendingAccess> queue;
    bool engineBusy = false;  ///< head of queue has a bus op in flight

    CoherenceObserver *checkObs = nullptr;

    StatGroup statGroup;
};

inline Addr
Cache::lineBaseOf(Addr byte_addr) const
{
    return byte_addr & ~(lineBytes - 1);
}

inline std::size_t
Cache::indexOf(Addr byte_addr) const
{
    const Addr line = byte_addr >> lineShift;
    return line & (tag.size() - 1);
}

inline bool
Cache::holds(Addr byte_addr) const
{
    return tag[indexOf(byte_addr)] == lineBaseOf(byte_addr);
}

inline Word &
Cache::wordAt(std::size_t index, Addr byte_addr)
{
    return data[index * _lineWords +
                ((byte_addr / bytesPerWord) & (_lineWords - 1))];
}

inline void
Cache::countRef(const MemRef &ref, bool hit)
{
    switch (ref.type) {
      case RefType::InstrRead: ++refsInstr; break;
      case RefType::DataRead: ++refsRead; break;
      case RefType::DataWrite: ++refsWrite; break;
    }
    if (isWrite(ref.type)) {
        if (hit) ++writeHits; else ++writeMisses;
    } else {
        if (hit) ++readHits; else ++readMisses;
    }
}

inline Cache::AccessResult
Cache::cpuAccess(const MemRef &ref, Callback cb)
{
    // The fast path handles exactly the aligned read hit on an idle
    // engine with the tag store free, so cpuAccessSlow never sees
    // one; it handles the silent write hit and everything else.
    if (ref.addr % bytesPerWord == 0 && !tagBusy() && queue.empty() &&
        !engineBusy && !isWrite(ref.type)) {
        const std::size_t i = indexOf(ref.addr);
        if (tag[i] == lineBaseOf(ref.addr)) {
            countRef(ref, true);
            const Word out = wordAt(i, ref.addr);
            if (checkObs)
                checkObs->loadObserved(ref.addr, out, *this, "hit");
            return {AccessOutcome::Hit, out};
        }
    }
    return cpuAccessSlow(ref, std::move(cb));
}

} // namespace firefly

#endif // FIREFLY_CACHE_CACHE_HH
