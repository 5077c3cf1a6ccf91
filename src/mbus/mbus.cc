#include "mbus/mbus.hh"

#include "fault/fault_injector.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly
{

const char *
toString(MBusOpType type)
{
    switch (type) {
      case MBusOpType::MRead: return "MRead";
      case MBusOpType::MWrite: return "MWrite";
      case MBusOpType::MReadOwned: return "MReadOwned";
      case MBusOpType::MInvalidate: return "MInvalidate";
    }
    return "?";
}

const char *
toString(MBusOpKind kind)
{
    switch (kind) {
      case MBusOpKind::Fill: return "fill";
      case MBusOpKind::VictimWrite: return "victim";
      case MBusOpKind::WriteThrough: return "write-through";
      case MBusOpKind::Update: return "update";
      case MBusOpKind::Invalidate: return "invalidate";
      case MBusOpKind::DmaRead: return "dma-read";
      case MBusOpKind::DmaWrite: return "dma-write";
    }
    return "?";
}

void
MBusClient::snoopSupplyData(const MBusTransaction &, Word *)
{
    panic("snoopSupplyData called on a client that never supplies");
}

void
MBusClient::snoopComplete(const MBusTransaction &)
{
}

void
MBusClient::transactionDone(const MBusTransaction &)
{
}

void
MBusClient::refreshWriteData(MBusTransaction &)
{
}

MBus::MBus(Simulator &sim, MainMemory &memory, std::string name)
    : sim(sim), memory(memory), countedTo(sim.now()),
      statGroup(std::move(name)), arbWaitHist(16, 2.0)
{
    sim.addClocked(this, Phase::Bus);

    statGroup.addCounter(&totalCycleCount, "cycles",
                         "bus cycles simulated");
    statGroup.addCounter(&busyCycleCount, "busy_cycles",
                         "bus cycles with a transaction in progress");
    statGroup.addFormula("load", "fraction of non-idle bus cycles",
                         [this] { return load(); });
    static const char *op_names[4] = {
        "reads", "writes", "reads_owned", "invalidates"
    };
    static const char *op_descs[4] = {
        "MRead transactions", "MWrite transactions",
        "MReadOwned transactions (baseline protocols)",
        "MInvalidate transactions (baseline protocols)"
    };
    for (int i = 0; i < 4; ++i)
        statGroup.addCounter(&opCount[i], op_names[i], op_descs[i]);
    static const char *kind_names[7] = {
        "fills", "victim_writes", "write_throughs", "updates",
        "ownership_ops", "dma_reads", "dma_writes"
    };
    for (int i = 0; i < 7; ++i) {
        statGroup.addCounter(&kindCount[i], kind_names[i],
                             "transactions by initiator purpose");
    }
    statGroup.addCounter(&msharedCount, "mshared_asserted",
                         "transactions that observed MShared");
    statGroup.addCounter(&cacheSupplyCount, "cache_supplied",
                         "reads whose data came from another cache");
    statGroup.addHistogram(&arbWaitHist, "arb_wait",
                           "cycles from request to bus grant");
}

unsigned
MBus::attach(MBusClient *client)
{
    clients.push_back(client);
    filters.emplace_back();
    pending.emplace_back();
    return clients.size() - 1;
}

void
MBus::attachCache(MBusClient *client, Addr line_bytes, unsigned lines,
                  const Addr *tags)
{
    TagFilter &f = filters[attach(client)];
    f.tags = tags;
    while ((Addr{1} << f.lineShift) < line_bytes)
        ++f.lineShift;
    f.indexMask = lines - 1;
}

void
MBus::request(const MBusTransaction &txn)
{
    if (txn.initiator == nullptr)
        panic("MBus request without initiator");
    if (txn.addr % bytesPerWord != 0)
        panic("MBus address 0x%x not longword aligned", txn.addr);
    if (txn.words == 0 || txn.words > maxBurstWords)
        panic("MBus burst of %u words unsupported", txn.words);

    for (unsigned i = 0; i < clients.size(); ++i) {
        if (clients[i] == txn.initiator) {
            if (pending[i].has_value() ||
                (active && active->initiator == txn.initiator)) {
                panic("client %s has a transaction outstanding",
                      txn.initiator->busClientName().c_str());
            }
            pending[i] = PendingRequest{txn, sim.now()};
            // Arbitrate at this cycle's Bus phase if it is still to
            // come, else at the next one.
            if (dueCycle() > sim.now())
                setDue(sim.now());
            if (auto *ts = obs::traceSink()) {
                ts->instant(sim.now(), obs::kCatMBus,
                            statGroup.name(), "request",
                            {{"op", toString(txn.type)},
                             {"addr", obs::hexAddr(txn.addr)},
                             {"by", txn.initiator->busClientName()}});
            }
            return;
        }
    }
    panic("MBus request from unattached client %s",
          txn.initiator->busClientName().c_str());
}

bool
MBus::busy(const MBusClient *client) const
{
    if (active && active->initiator == client)
        return true;
    for (unsigned i = 0; i < clients.size(); ++i) {
        if (clients[i] == client)
            return pending[i].has_value();
    }
    return false;
}

Cycle
MBus::idleDue(Cycle from) const
{
    // The earliest pending request is the next arbitration; slots in
    // parity-retry backoff are due at `earliest`.
    Cycle due = kNeverWakes;
    for (const auto &slot : pending) {
        if (slot.has_value())
            due = std::min(due, std::max(slot->earliest, from));
    }
    return due;
}

void
MBus::settle(Cycle horizon)
{
    // tick() counts every cycle (idle ones are the denominator of
    // load()); credit the idle cycles the bus slept through.
    if (horizon > countedTo) {
        totalCycleCount += horizon - countedTo;
        countedTo = horizon;
    }
}

void
MBus::tick(Cycle now)
{
    settle(now + 1);  // this cycle, and any idle ones slept through

    if (!active) {
        // Arbitration: fixed priority, lowest index wins.  Slots in
        // parity-retry backoff are not eligible yet.
        for (unsigned i = 0; i < pending.size(); ++i) {
            if (!pending[i].has_value())
                continue;
            if (now < pending[i]->earliest)
                continue;
            active = pending[i]->txn;
            activeAttempt = pending[i]->attempt;
            arbWaitHist.sample(
                static_cast<double>(now - pending[i]->requested));
            pending[i].reset();
            phaseCycle = 0;
            suppliers.clear();
            ++busyCycleCount;
            sim.noteProgress();
            if (auto *ts = obs::traceSink()) {
                // The whole transaction renders as one slice on the
                // bus track, grant (address cycle) to completion.
                const std::string op =
                    std::string(toString(active->type)) + " " +
                    obs::hexAddr(active->addr);
                const std::string by = active->initiator->busClientName();
                ts->begin(now, obs::kCatMBus, statGroup.name(), op,
                          {{"kind", toString(active->kind)}, {"by", by}});
                ts->instant(now, obs::kCatMBus, statGroup.name(),
                            "arb+addr",
                            {{"detail", op + " (" +
                                            toString(active->kind) +
                                            ") by " + by}});
            }
            return;
        }
        setDue(idleDue(now + 1));  // idle cycle
        return;
    }

    ++busyCycleCount;
    ++phaseCycle;
    sim.noteProgress();

    if (phaseCycle == 1) {
        if (active->type == MBusOpType::MWrite)
            active->initiator->refreshWriteData(*active);
        probePhase();
        if (auto *ts = obs::traceSink()) {
            ts->instant(now, obs::kCatMBus, statGroup.name(),
                        "wdata+probe",
                        {{"detail", active->type == MBusOpType::MWrite
                                        ? "write data driven"
                                        : "tag probe"}});
        }
    } else if (phaseCycle == 2) {
        if (auto *ts = obs::traceSink()) {
            ts->instant(now, obs::kCatMBus, statGroup.name(), "mshared",
                        {{"detail", active->mshared ? "MShared asserted"
                                                    : "MShared clear"}});
            if (active->mshared) {
                ts->instant(now, obs::kCatMBus, statGroup.name(),
                            "MShared",
                            {{"addr", obs::hexAddr(active->addr)}});
            }
        }
    } else {
        const unsigned burst = phaseCycle - 3;
        if (burst == 0 && injector &&
            injector->faultPlan().busParityError()) {
            // A parity error is detected as the data cycle begins,
            // before any word moves: no memory or cache state has
            // changed, so dropping the attempt is side-effect free.
            parityAbort(now);
            setDue(idleDue(now + 1));
            return;
        }
        dataPhase(burst);
        if (auto *ts = obs::traceSink()) {
            ts->instant(now, obs::kCatMBus, statGroup.name(), "data",
                        {{"detail", active->suppliedByCache
                                        ? "cache supplies, memory inhibited"
                                        : "memory drives/captures"}});
        }
        if (burst + 1 == active->words) {
            completeTransaction();
            setDue(idleDue(now + 1));
        }
    }
}

void
MBus::probePhase()
{
    // Every other client's tag store is busy this cycle, probed or
    // not; only caches that hold the line are actually probed.
    probeCycle = sim.now();
    probeInitiator = active->initiator;
    for (unsigned i = 0; i < clients.size(); ++i) {
        if (clients[i] == active->initiator || !mayHold(i, active->addr))
            continue;
        ++snoopCallCount;
        const SnoopReply reply = clients[i]->snoopProbe(*active);
        if (reply.shared)
            active->mshared = true;
        if (reply.supply)
            suppliers.push_back(i);
    }
    active->suppliedByCache = !suppliers.empty();
}

void
MBus::dataPhase(unsigned burst_index)
{
    MBusTransaction &txn = *active;
    const Addr addr = txn.addr + burst_index * bytesPerWord;

    switch (txn.type) {
      case MBusOpType::MRead:
      case MBusOpType::MReadOwned:
        if (!suppliers.empty()) {
            // One or more caches drive the data; the protocol
            // guarantees they agree (checked here as an invariant).
            bool first = true;
            Word value = 0;
            std::array<Word, maxBurstWords> buf{};
            for (const unsigned idx : suppliers) {
                clients[idx]->snoopSupplyData(txn, buf.data());
                if (first) {
                    value = buf[burst_index];
                    first = false;
                } else if (buf[burst_index] != value) {
                    panic("caches disagree on read data for 0x%x "
                          "(coherence broken)", addr);
                }
            }
            txn.data[burst_index] = value;
            // The memory always captures a cache supply.  For the
            // Firefly protocol a dirty supplier relies on this to
            // become clean-shared; for clean sharers it is a no-op.
            // Protocols that keep ownership (Berkeley, Dragon) set
            // updatesMemory=false on their fills... but fills are
            // reads; they signal capture policy via txn.updatesMemory.
            if (txn.updatesMemory)
                memory.write(addr, value);
        } else {
            txn.data[burst_index] = memory.read(addr);
        }
        break;

      case MBusOpType::MWrite:
        if (txn.updatesMemory)
            memory.write(addr, txn.data[burst_index]);
        break;

      case MBusOpType::MInvalidate:
        break;  // address-only
    }
}

void
MBus::parityAbort(Cycle now)
{
    MBusTransaction txn = *active;
    active.reset();
    ++injector->parityErrors;
    const unsigned attempt = activeAttempt + 1;
    if (auto *ts = obs::traceSink()) {
        ts->instant(now, obs::kCatMBus, statGroup.name(), "parity",
                    {{"detail", "data parity error, transaction NACKed"}});
        ts->end(now, obs::kCatMBus, statGroup.name());
        ts->instant(now, obs::kCatFault, statGroup.name(),
                    "parity-nack",
                    {{"op", toString(txn.type)},
                     {"addr", obs::hexAddr(txn.addr)},
                     {"by", txn.initiator->busClientName()},
                     {"attempt", std::to_string(attempt)}});
    }
    if (attempt >= fault::kParityRetryBudget) {
        injector->machineCheck(
            statGroup.name(),
            std::string(toString(txn.type)) + " " +
                obs::hexAddr(txn.addr) + " by " +
                txn.initiator->busClientName() +
                ": parity retry budget (" +
                std::to_string(fault::kParityRetryBudget) +
                ") exhausted");
    }
    // Re-arm the master's slot: the transaction retries from the
    // arbitration phase after a bounded exponential backoff.  Snoop
    // results belong to the aborted attempt, so clear them; the
    // retry re-probes (and an MWrite re-drives its data).
    txn.mshared = false;
    txn.suppliedByCache = false;
    for (unsigned i = 0; i < clients.size(); ++i) {
        if (clients[i] == txn.initiator) {
            pending[i] = PendingRequest{
                txn, now, now + injector->parityBackoff(attempt),
                attempt};
            ++injector->parityRetries;
            return;
        }
    }
    panic("parity retry for unattached client %s",
          txn.initiator->busClientName().c_str());
}

void
MBus::completeTransaction()
{
    // Detach the transaction before callbacks so the initiator can
    // immediately queue a follow-on request (victim write -> fill).
    MBusTransaction txn = *active;
    active.reset();

    if (activeAttempt > 0) {
        ++injector->parityRecovered;
        if (auto *ts = obs::traceSink()) {
            ts->instant(sim.now(), obs::kCatFault, statGroup.name(),
                        "parity-recovered",
                        {{"op", toString(txn.type)},
                         {"addr", obs::hexAddr(txn.addr)},
                         {"attempts",
                          std::to_string(activeAttempt + 1)}});
        }
        activeAttempt = 0;
    }

    if (auto *ts = obs::traceSink()) {
        ts->end(sim.now(), obs::kCatMBus, statGroup.name());
        if (txn.suppliedByCache) {
            ts->instant(sim.now(), obs::kCatMBus, statGroup.name(),
                        "cache-supplied",
                        {{"addr", obs::hexAddr(txn.addr)}});
        }
    }

    ++opCount[static_cast<int>(txn.type)];
    ++kindCount[static_cast<int>(txn.kind)];
    if (txn.mshared)
        ++msharedCount;
    if (txn.suppliedByCache &&
        (txn.type == MBusOpType::MRead ||
         txn.type == MBusOpType::MReadOwned)) {
        ++cacheSupplyCount;
    }

    for (const auto &observer : commitObservers)
        observer(txn);

    for (unsigned i = 0; i < clients.size(); ++i) {
        if (clients[i] != txn.initiator && mayHold(i, txn.addr))
            clients[i]->snoopComplete(txn);
    }
    txn.initiator->transactionDone(txn);

    for (const auto &observer : settleObservers)
        observer(txn);
}

double
MBus::load() const
{
    const auto total = totalCycleCount.value();
    if (total == 0)
        return 0.0;
    return static_cast<double>(busyCycleCount.value()) /
           static_cast<double>(total);
}

} // namespace firefly
