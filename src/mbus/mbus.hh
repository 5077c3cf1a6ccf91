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
 * With a flight-recorder sink attached (obs/trace.hh) every busy bus
 * cycle emits one MBus instant on the bus track, named for its phase:
 * "arb+addr", "wdata+probe", "mshared", "data" (once per burst word)
 * or "parity" (a data cycle NACKed by an injected fault).  Its one
 * arg, "detail", is the text Figure 4 prints for that cycle.
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
     * Tag probe for another agent's transaction (cycle 1).  Must not
     * mutate coherence state; state changes belong in snoopComplete.
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
     * Initiator callback at the write-data cycle (cycle 1) of an
     * MWrite: re-drive `txn.data` from current state.  A real bus
     * master drives its data lines in this cycle, not at request
     * time, so data that changed while the request waited for the
     * bus (a snooped DMA write merging into a queued victim line)
     * must be reflected here.  May clear `txn.updatesMemory` to
     * squash the memory update entirely (the line was invalidated
     * while the write-back waited).  Default: keep the request-time
     * data.
     */
    virtual void refreshWriteData(MBusTransaction &txn);
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
     * cycle `now`: the bus probed this cycle for a transaction someone
     * else initiated.  This stamp stands for the probe of every
     * non-initiator, including the caches the bus skips because they
     * do not hold the line, so the single-ported tag-store contention
     * (the paper's SP term) does not depend on the filter.
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
    /** Fraction of non-idle bus cycles since construction/reset. */
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

    /** Due cycle of an idle bus: its earliest eligible request. */
    Cycle idleDue(Cycle from) const;
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
    /** Snoop-probe stamp: the cycle of the last probe and the
     *  transaction's initiator (see probedAt). */
    Cycle probeCycle = kNeverWakes;
    const MBusClient *probeInitiator = nullptr;
    std::uint64_t snoopCallCount = 0;
    /** Cycles before this are in totalCycleCount; idle cycles the bus
     *  slept through are credited at its next tick or settle. */
    Cycle countedTo;
    /** One pending slot per client, indexed by priority. */
    std::vector<std::optional<PendingRequest>> pending;

    /** Active transaction state. */
    std::optional<MBusTransaction> active;
    unsigned phaseCycle = 0;
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

} // namespace firefly

#endif // FIREFLY_MBUS_MBUS_HH
