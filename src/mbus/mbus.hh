/**
 * @file
 * The Firefly MBus.
 *
 * The MBus is a synchronous bus with two operations, MRead and
 * MWrite, each taking four 100 ns cycles (paper Figure 4):
 *
 *   cycle 0: arbitration; the winner places address and operation
 *   cycle 1: write data (MWrite); all other caches probe their tags
 *   cycle 2: caches holding the line assert the wired-OR MShared
 *   cycle 3: data transfer; on MRead, if MShared was asserted the
 *            sharing caches supply the data and main memory is
 *            inhibited (but captures a dirty supply, keeping memory
 *            consistent with clean-shared copies)
 *
 * The simulated bus wakes only for work: at the grant, at cycle 1
 * only when some other client may hold the line (the snoop filter
 * reads the caches' tags), and at each data cycle.  Cycle 2 carries
 * the wired-OR the probe already gathered, so the bus sleeps through
 * it, and through cycle 1 when nobody else holds the line: then the
 * probe would call nobody.  The grant stamps the other tag stores busy
 * for cycle 1 ahead of time either way.  The cycles slept through are
 * credited as busy when the bus next ticks or settles.
 *
 * With a flight-recorder sink attached (obs/trace.hh) each granted
 * transaction is one MBus slice, named for its operation, from grant
 * to last data cycle: its begin args say what was asked for ("addr",
 * "kind", "by", "words", the arbitration "wait"), its end args what
 * the probe found ("mshared", "supplied").  A parity-NACKed attempt
 * ends with no args, followed by the Fault category's "parity-nack"
 * instant.  The slices are all the bus emits: a request's cycle is
 * its slice's begin less its "wait".  MBusPhaseLog renders the
 * slices as Figure 4's per-cycle lines.
 *
 * One transfer completes every 400 ns, i.e. 10 MB/s peak with 4-byte
 * transfers.  Arbitration is fixed priority (the paper notes this
 * favours high-priority caches).  Burst transfers of more than one
 * longword (+1 cycle per extra word) are an extension used only by
 * the line-size ablation; the real machine always moved one longword.
 *
 * The baseline coherence protocols need two bus operations the real
 * MBus did not have: MReadOwned (read with intent to modify) and
 * MInvalidate (address-only).  They use the same 4-cycle timing.
 */

#ifndef FIREFLY_MBUS_MBUS_HH
#define FIREFLY_MBUS_MBUS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mem/main_memory.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace firefly
{

namespace fault
{
class FaultInjector;
}

class MBusClient;

/** Operation as seen on the bus wires. */
enum class MBusOpType : std::uint8_t
{
    MRead,
    MWrite,
    MReadOwned,   ///< extension for invalidation protocols
    MInvalidate,  ///< extension for invalidation protocols
};

/** Why the initiator issued the operation (statistics only). */
enum class MBusOpKind : std::uint8_t
{
    Fill,          ///< read to service a cache miss
    VictimWrite,   ///< write-back of a dirty victim
    WriteThrough,  ///< Firefly conditional write-through / WTI write
    Update,        ///< Dragon cache-to-cache update (no memory write)
    Invalidate,    ///< ownership acquisition
    DmaRead,
    DmaWrite,
};

const char *toString(MBusOpType type);
const char *toString(MBusOpKind kind);

/** Longest supported burst (line-size ablation: 32-byte lines). */
constexpr unsigned maxBurstWords = 8;

/** The tag of an invalid cache line.  No longword-aligned address
 *  equals it, so it matches no line base. */
constexpr Addr kNoLine = ~Addr{0};

/** One bus transaction, in flight or completed. */
struct MBusTransaction
{
    MBusOpType type = MBusOpType::MRead;
    MBusOpKind kind = MBusOpKind::Fill;
    Addr addr = 0;            ///< byte address, longword aligned
    unsigned words = 1;       ///< burst length in longwords
    std::array<Word, maxBurstWords> data{};  ///< write data / read result
    bool updatesMemory = true;  ///< MWrite: memory captures the data
    MBusClient *initiator = nullptr;

    // Results, valid from the MShared cycle onwards:
    bool mshared = false;        ///< wired-OR of snoop hits
    bool suppliedByCache = false; ///< a cache drove the read data
};

/** Snoop response gathered in the probe cycle. */
struct SnoopReply
{
    bool shared = false;  ///< assert MShared
    bool supply = false;  ///< will drive read data in the data cycle
};

/** Interface every bus agent (cache, DMA engine) implements. */
class MBusClient
{
  public:
    virtual ~MBusClient() = default;

    /** Name for traces and stats. */
    virtual std::string busClientName() const = 0;

    /**
     * Tag probe for another agent's transaction (cycle 1; the bus
     * calls only clients that may hold the line).  Must not mutate
     * coherence state; state changes belong in snoopComplete.
     */
    virtual SnoopReply snoopProbe(const MBusTransaction &txn) = 0;

    /**
     * Drive read data (cycle 3); called only if snoopProbe returned
     * supply.  Writes `txn.words` longwords to `out`.
     */
    virtual void snoopSupplyData(const MBusTransaction &txn, Word *out);

    /**
     * Transaction committed (end of cycle 3); snoopers apply state
     * changes (update copies on MWrite, invalidate, Dirty->Shared...).
     */
    virtual void snoopComplete(const MBusTransaction &txn);

    /** Initiator callback: the transaction finished. */
    virtual void transactionDone(const MBusTransaction &txn);

    /**
     * Initiator callback at the grant (cycle 0) of every transaction,
     * before the bus's slice begins and before any snoop: restate
     * `txn` from the initiator's current state.  Other agents'
     * transactions can change what the initiator holds while its
     * request waits: a queued victim write-back re-drives the line a
     * snooped DMA write merged into (or clears `txn.updatesMemory` if
     * the line was invalidated), and an MInvalidate whose line
     * another writer's snoop took becomes the MReadOwned a write miss
     * issues.  The grant is exact: from it to the data cycle the bus
     * carries only this transaction and the initiator serves no other
     * access, so nothing changes the line before a real master would
     * drive its write data (cycle 1).  Default: keep the request.
     */
    virtual void transactionGranted(MBusTransaction &txn);
};

/** The bus proper: arbitration + 4-phase transaction engine. */
class MBus : public Clocked
{
  public:
    MBus(Simulator &sim, MainMemory &memory, std::string name = "mbus");

    /**
     * Attach a client.  Attachment order is arbitration priority:
     * earlier clients win ties (the real Firefly used fixed priority).
     * The bus probes a client attached this way on every transaction.
     * @return the client's priority index.
     */
    unsigned attach(MBusClient *client);

    /**
     * Attach a direct-mapped cache of `lines` lines of `line_bytes`
     * bytes whose tag array is `tags`: entry i is the base of the
     * valid line at index i, or kNoLine.  The bus reads it to probe
     * the cache only on transactions whose line it holds, so, like
     * the client, the array must outlive the bus's use of it and
     * never move.  `lines` is a power of two (Cache's constructor
     * insists).  Attachment order is priority, as for attach().
     */
    void attachCache(MBusClient *client, Addr line_bytes, unsigned lines,
                     const Addr *tags);

    /**
     * True if the tag store of `client` is taken by a snoop probe in
     * cycle `now`: it is the probe cycle of a transaction someone else
     * initiated (the grant sets this stamp ahead, for grant + 1).
     * This stamp stands for the probe of every non-initiator,
     * including the caches the bus skips because they do not hold the
     * line, so the single-ported tag-store contention (the paper's SP
     * term) does not depend on the filter.
     */
    bool
    probedAt(Cycle now, const MBusClient *client) const
    {
        return probeCycle == now && probeInitiator != client;
    }

    /** snoopProbe calls made so far (host-perf diagnostics, not a
     *  registered stat; snoopComplete goes to the same caches). */
    std::uint64_t snoopCalls() const { return snoopCallCount; }

    /**
     * Request a transaction.  A client may have at most one pending
     * or active transaction; violating that is a simulator bug.
     */
    void request(const MBusTransaction &txn);

    /** True if this client has a pending or active transaction. */
    bool busy(const MBusClient *client) const;

    void tick(Cycle now) override;
    void settle(Cycle horizon) override;

    /** The storage system behind the bus (for functional access). */
    MainMemory &memorySystem() { return memory; }

    /**
     * Attach the fault injector (nullptr detaches).  With one
     * attached, transactions can be NACKed for parity as they enter
     * the data cycle - before any side effect - and the master
     * retries with bounded exponential backoff; exhausting the retry
     * budget raises a machine check.
     */
    void setFaultInjector(fault::FaultInjector *inj) { injector = inj; }

    // --- observability ------------------------------------------------
    /** Fraction of non-idle bus cycles since construction. */
    double load() const;
    Cycle busyCycles() const { return busyCycleCount.value(); }
    StatGroup &stats() { return statGroup; }

    /**
     * Observe every transaction at two points of its completion
     * cycle.  Commit observers run first, before any snoopComplete/
     * transactionDone callback: this is the serialization instant,
     * where the coherence checker's oracle learns bus-written values
     * (a completion callback can synchronously start validating the
     * next queued access).  Settle observers run last, after every
     * callback has applied its state changes: this is where the
     * invariant scanner sees a quiescent machine.  Non-snooping
     * structures (the CVAX on-chip cache model) also watch commits to
     * detect would-be staleness.
     */
    using TxnObserver = std::function<void(const MBusTransaction &)>;
    void
    addCommitObserver(TxnObserver observer)
    {
        commitObservers.push_back(std::move(observer));
    }

    void
    addSettleObserver(TxnObserver observer)
    {
        settleObservers.push_back(std::move(observer));
    }

  private:
    struct PendingRequest
    {
        MBusTransaction txn;
        Cycle requested;
        /** Not eligible for arbitration before this cycle (parity
         *  retry backoff). */
        Cycle earliest = 0;
        /** Completed attempts that were NACKed for parity. */
        unsigned attempt = 0;
    };

    /** Where to find the tags of one client. */
    struct TagFilter
    {
        const Addr *tags = nullptr;  ///< null: probed on every txn
        unsigned lineShift = 0;
        Addr indexMask = 0;
    };

    /** May client `i` hold the line of `addr`?  Exact for a cache
     *  attached with attachCache. */
    bool
    mayHold(unsigned i, Addr addr) const
    {
        const TagFilter &f = filters[i];
        if (!f.tags)
            return true;
        const Addr line = addr >> f.lineShift;
        return f.tags[line & f.indexMask] == line << f.lineShift;
    }

    /** May any client but the initiator hold the active line? */
    bool anotherMayHold() const;
    /** Due cycle of an idle bus: its earliest eligible request. */
    Cycle idleDue(Cycle from) const;
    /** Start the transaction in pending slot `slot` (cycle 0) and
     *  publish its next wake: the probe cycle or the data cycle. */
    void grant(unsigned slot, Cycle now);
    void probePhase();
    void dataPhase(unsigned burst_index);
    void completeTransaction();
    /** Parity NACK: drop the attempt (no side effects have happened
     *  yet) and re-arm the master's slot for a backed-off retry. */
    void parityAbort(Cycle now);
    Simulator &sim;
    MainMemory &memory;

    std::vector<MBusClient *> clients;
    std::vector<TagFilter> filters;  ///< indexed by priority
    /** Snoop-probe stamp: the probe cycle of the latest grant and
     *  its transaction's initiator (see probedAt). */
    Cycle probeCycle = kNeverWakes;
    const MBusClient *probeInitiator = nullptr;
    std::uint64_t snoopCallCount = 0;
    /** Cycles before this are in totalCycleCount, and in
     *  busyCycleCount if a transaction held the bus; the cycles the
     *  bus slept through are credited at its next tick or settle. */
    Cycle countedTo;
    /** One pending slot per client, indexed by priority. */
    std::vector<std::optional<PendingRequest>> pending;

    /** Active transaction state. */
    std::optional<MBusTransaction> active;
    Cycle grantCycle = 0;  ///< the active transaction's cycle 0
    unsigned activeAttempt = 0;       ///< parity NACKs already taken
    std::vector<unsigned> suppliers;  ///< client indices driving data

    fault::FaultInjector *injector = nullptr;

    std::vector<TxnObserver> commitObservers;
    std::vector<TxnObserver> settleObservers;

    // --- statistics ---------------------------------------------------
    StatGroup statGroup;
    Counter totalCycleCount;
    Counter busyCycleCount;
    Counter opCount[4];
    Counter kindCount[7];
    Counter msharedCount;
    Counter cacheSupplyCount;
    Histogram arbWaitHist;
};

/** One line of Figure 4: a bus cycle and what the bus did in it. */
struct MBusPhase
{
    Cycle when = 0;
    std::string name;    ///< "arb+addr", "wdata+probe", "mshared", "data"
    std::string detail;  ///< the text Figure 4 prints for the cycle

    bool operator==(const MBusPhase &) const = default;
};

/**
 * The one place the phase layout lives: a sink that renders each
 * completed MBus slice as Figure 4's lines (arb+addr at the grant
 * cycle g, wdata+probe at g+1, mshared at g+2, one data line per
 * cycle from g+3 to the slice's end) and forwards every event to the
 * sink attached before it.  A slice a parity NACK cut short renders
 * as no lines; its retry is a slice of its own.
 */
class MBusPhaseLog : public obs::TraceSink
{
  public:
    std::vector<MBusPhase> phases;

    void event(const obs::TraceEvent &ev) override;

  private:
    obs::TraceSink *next = obs::traceSink();
    obs::TraceEvent open;  ///< begin of the slice in flight
};

} // namespace firefly

#endif // FIREFLY_MBUS_MBUS_HH
