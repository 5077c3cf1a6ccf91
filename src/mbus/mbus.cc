#include "mbus/mbus.hh"

#include <cstring>

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
MBusClient::transactionGranted(MBusTransaction &)
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
    // An ownership acquisition is always an MInvalidate, which
    // `invalidates` already counts, so that kind has no stat of its
    // own.
    static const char *kind_names[7] = {
        "fills", "victim_writes", "write_throughs", "updates",
        nullptr, "dma_reads", "dma_writes"
    };
    for (int i = 0; i < 7; ++i) {
        if (kind_names[i]) {
            statGroup.addCounter(&kindCount[i], kind_names[i],
                                 "transactions by initiator purpose");
        }
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
            // An idle bus arbitrates at this cycle's Bus phase if it
            // is still to come, else at the next one.  A busy one
            // picks the slot up when its transaction ends (idleDue).
            if (!active && dueCycle() > sim.now())
                setDue(sim.now());
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

bool
MBus::anotherMayHold() const
{
    for (unsigned i = 0; i < clients.size(); ++i) {
        if (clients[i] != active->initiator && mayHold(i, active->addr))
            return true;
    }
    return false;
}

void
MBus::settle(Cycle horizon)
{
    // tick() counts every cycle (idle ones are the denominator of
    // load()); credit the cycles the bus slept through, busy ones
    // (and their progress) if a transaction held the bus.
    if (horizon > countedTo) {
        totalCycleCount += horizon - countedTo;
        if (active) {
            busyCycleCount += horizon - countedTo;
            sim.noteProgressAt(horizon - 1);
        }
        countedTo = horizon;
    }
}

void
MBus::tick(Cycle now)
{
    settle(now + 1);  // this cycle, and any slept through
    // Before its due cycle the bus only counts, so the path that ticks
    // every cycle does the gated path's work in the same cycles.
    if (now < dueCycle())
        return;

    if (!active) {
        // Arbitration: fixed priority, lowest index wins.  Slots in
        // parity-retry backoff are not eligible yet.
        for (unsigned i = 0; i < pending.size(); ++i) {
            if (pending[i].has_value() && now >= pending[i]->earliest) {
                grant(i, now);
                return;
            }
        }
        setDue(idleDue(now + 1));  // idle cycle
        return;
    }

    // Cycle 2, the MShared cycle, has no work: the probe already
    // gathered the wired-OR, so the bus is never due then.
    const Cycle phase = now - grantCycle;
    if (phase == 1) {
        probePhase();
        setDue(grantCycle + 3);
        return;
    }
    const unsigned burst = static_cast<unsigned>(phase - 3);
    if (burst == 0 && injector && injector->faultPlan().busParityError()) {
        // A parity error is detected as the data cycle begins, before
        // any word moves: no memory or cache state has changed, so
        // dropping the attempt is side-effect free.
        parityAbort(now);
        setDue(idleDue(now + 1));
        return;
    }
    dataPhase(burst);
    if (burst + 1 == active->words) {
        completeTransaction();
        setDue(idleDue(now + 1));
    }
}

void
MBus::grant(unsigned slot, Cycle now)
{
    PendingRequest &req = *pending[slot];
    active = req.txn;
    activeAttempt = req.attempt;
    const Cycle requested = req.requested;
    arbWaitHist.sample(static_cast<double>(now - requested));
    pending[slot].reset();
    grantCycle = now;
    suppliers.clear();
    ++busyCycleCount;  // settle credits the cycles after this one
    sim.noteProgress();
    active->initiator->transactionGranted(*active);
    if (auto *ts = obs::traceSink()) {
        // The whole transaction is one slice on the bus track, grant
        // (address cycle) to completion, named for its operation.
        ts->begin(now, obs::kCatMBus, statGroup.name(),
                  toString(active->type),
                  {{"addr", obs::hexAddr(active->addr)},
                   {"kind", toString(active->kind)},
                   {"by", active->initiator->busClientName()},
                   {"words", std::to_string(active->words)},
                   {"wait", std::to_string(now - requested)}});
    }
    // Every other client's tag store is busy in the probe cycle,
    // probed or not.
    probeCycle = now + 1;
    probeInitiator = active->initiator;
    // With no other holder now there is none at the probe either: only
    // a completing transaction installs a line, and this one holds the
    // bus.  That probe would call nobody, so the bus sleeps to the
    // data cycle with MShared clear.
    setDue(anotherMayHold() ? now + 1 : now + 3);
}

void
MBus::probePhase()
{
    // Only the caches that hold the line are probed.
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
            // The initiator sets txn.updatesMemory from
            // ProtocolTable::fillsUpdateMemory: memory captures a
            // cache supply only under a protocol whose shared copies
            // are always clean (Firefly: a dirty supplier becomes
            // clean-shared).  Protocols that keep an owner (Berkeley,
            // Dragon) leave memory stale.
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
    // retry re-probes (and its grant runs the initiator's hook
    // again).
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
        ts->end(sim.now(), obs::kCatMBus, statGroup.name(),
                {{"mshared", txn.mshared ? "1" : "0"},
                 {"supplied", txn.suppliedByCache ? "1" : "0"}});
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

void
MBusPhaseLog::event(const obs::TraceEvent &ev)
{
    if (next)
        next->event(ev);
    if (std::strcmp(ev.category, obs::kCatMBus) != 0)
        return;
    if (ev.kind == obs::EventKind::Begin)
        open = ev;
    // A slice a parity NACK cut short ends without args.
    if (ev.kind != obs::EventKind::End || ev.args.empty())
        return;

    const Cycle grant = open.when;
    phases.push_back({grant, "arb+addr",
                      open.name + " " + open.arg("addr") + " (" +
                          open.arg("kind") + ") by " + open.arg("by")});
    phases.push_back({grant + 1, "wdata+probe",
                      open.name == toString(MBusOpType::MWrite)
                          ? "write data driven"
                          : "tag probe"});
    phases.push_back({grant + 2, "mshared",
                      ev.arg("mshared") == "1" ? "MShared asserted"
                                               : "MShared clear"});
    const char *data = ev.arg("supplied") == "1"
                           ? "cache supplies, memory inhibited"
                           : "memory drives/captures";
    for (Cycle cycle = grant + 3; cycle <= ev.when; ++cycle)
        phases.push_back({cycle, "data", data});
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
