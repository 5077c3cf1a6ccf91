#include "cache/cache.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly
{

Cache::Cache(Simulator &sim, MBus &bus, const ProtocolTable &protocol,
             Geometry geom, std::string name)
    : sim(sim), bus(bus), proto(protocol),
      _name(std::move(name)), statGroup(_name)
{
    if (geom.lineBytes < bytesPerWord ||
        (geom.lineBytes & (geom.lineBytes - 1)) != 0 ||
        geom.lineBytes > bytesPerWord * maxBurstWords) {
        fatal("unsupported cache line size %u", geom.lineBytes);
    }
    if (geom.cacheBytes % geom.lineBytes != 0 ||
        geom.cacheBytes < geom.lineBytes) {
        fatal("cache size %u not a multiple of line size %u",
              geom.cacheBytes, geom.lineBytes);
    }
    const std::size_t lines = geom.cacheBytes / geom.lineBytes;
    if ((lines & (lines - 1)) != 0)
        fatal("cache of %zu lines: direct-mapped indexing needs a power "
              "of two", lines);
    _lineWords = geom.lineBytes / bytesPerWord;
    lineBytes = geom.lineBytes;
    tag.assign(lines, kNoLine);
    state.assign(lines, LineState::Invalid);
    data.assign(lines * _lineWords, 0);
    while ((Addr{1} << lineShift) < lineBytes)
        ++lineShift;

    bus.attachCache(this, lineBytes, lines, tag.data());

    statGroup.addCounter(&refsInstr, "refs_instr", "instruction reads");
    statGroup.addCounter(&refsRead, "refs_read", "data reads");
    statGroup.addCounter(&refsWrite, "refs_write", "data writes");
    statGroup.addCounter(&readHits, "read_hits", "read hits");
    statGroup.addCounter(&readMisses, "read_misses", "read misses");
    statGroup.addCounter(&writeHits, "write_hits", "write hits");
    statGroup.addCounter(&writeMisses, "write_misses", "write misses");
    statGroup.addCounter(&fills, "fills", "MBus reads issued");
    statGroup.addCounter(&wtMshared, "wt_mshared",
                         "write-throughs that received MShared");
    statGroup.addCounter(&wtNoMshared, "wt_no_mshared",
                         "write-throughs that did not receive MShared");
    statGroup.addCounter(&victimWrites, "victim_writes",
                         "dirty victim write-backs");
    statGroup.addCounter(&updatesSent, "updates_sent",
                         "cache-to-cache updates issued (Dragon)");
    statGroup.addCounter(&invalidatesSent, "invalidates_sent",
                         "invalidate ops issued");
    statGroup.addCounter(&tagBusyRetries, "tag_busy_retries",
                         "CPU accesses delayed by snoop tag probes");
    statGroup.addCounter(&invalidationsReceived, "invals_received",
                         "lines invalidated by snooped traffic");
    statGroup.addCounter(&updatesReceived, "updates_received",
                         "lines updated in place by snooped writes");
    statGroup.addCounter(&dmaReads, "dma_reads", "DMA reads via cache");
    statGroup.addCounter(&dmaWrites, "dma_writes",
                         "DMA writes via cache");
    statGroup.addCounter(&dmaReadMisses, "dma_read_misses",
                         "DMA reads that went to the bus");
    statGroup.addFormula("miss_rate", "(read+write misses)/refs",
        [this] {
            const double refs =
                static_cast<double>(refsInstr.value() + refsRead.value() +
                                    refsWrite.value());
            if (refs == 0)
                return 0.0;
            return static_cast<double>(readMisses.value() +
                                       writeMisses.value()) / refs;
        });
    statGroup.addFormula("mbus_read_ratio",
        "MBus reads per processor reference (paper's M in Table 2)",
        [this] {
            const double refs =
                static_cast<double>(refsInstr.value() + refsRead.value() +
                                    refsWrite.value());
            if (refs == 0)
                return 0.0;
            return static_cast<double>(fills.value()) / refs;
        });
    statGroup.addFormula("dirty_fraction",
        "fraction of valid lines needing write-back (paper's D)",
        [this] { return dirtyFraction(); });
}

void
Cache::setLine(std::size_t index, Addr base, LineState s)
{
    tag[index] = s == LineState::Invalid ? kNoLine : base;
    state[index] = s;
}

double
Cache::dirtyFraction() const
{
    std::size_t valid = 0;
    std::size_t dirty = 0;
    for (const LineState s : state) {
        if (s != LineState::Invalid) {
            ++valid;
            if (needsWriteback(s))
                ++dirty;
        }
    }
    return valid ? static_cast<double>(dirty) / valid : 0.0;
}

void
Cache::traceLine(Addr line_base, LineState old_state,
                 LineState new_state, const char *cause)
{
    if (old_state == new_state)
        return;
    if (auto *ts = obs::traceSink()) {
        ts->instant(sim.now(), obs::kCatCache, _name,
                    std::string(toString(old_state)) + "->" +
                        toString(new_state),
                    {{"addr", obs::hexAddr(line_base)},
                     {"cause", cause}});
    }
}

bool
Cache::trySilentWriteHit(const MemRef &ref)
{
    const std::size_t i = indexOf(ref.addr);
    if (tag[i] != lineBaseOf(ref.addr) ||
        writeHitAction(state[i]) != WriteHitAction::Silent) {
        return false;
    }
    countRef(ref, true);
    writeHeld(ref, LineState::Dirty, "write-hit", true);
    return true;
}

Cache::AccessResult
Cache::cpuAccessSlow(const MemRef &ref, Callback cb)
{
    if (ref.addr % bytesPerWord != 0)
        panic("%s: unaligned reference 0x%x", _name.c_str(), ref.addr);

    if (tagBusy()) {
        ++tagBusyRetries;
        return {AccessOutcome::RetryTagBusy, 0};
    }

    if (queue.empty() && !engineBusy && isWrite(ref.type) &&
        trySilentWriteHit(ref)) {
        return {AccessOutcome::Hit, 0};
    }

    queue.push_back(PendingAccess{ref, false, std::move(cb)});
    if (!engineBusy && queue.size() == 1)
        dispatchHead();
    return {AccessOutcome::Pending, 0};
}

void
Cache::dmaAccess(const MemRef &ref, Callback cb)
{
    if (ref.addr % bytesPerWord != 0)
        panic("%s: unaligned DMA to 0x%x", _name.c_str(), ref.addr);

    queue.push_back(PendingAccess{ref, true, std::move(cb)});
    if (!engineBusy && queue.size() == 1)
        dispatchHead();
}

void
Cache::dispatchHead()
{
    PendingAccess &p = queue.front();
    const Addr addr = p.ref.addr;
    const std::size_t i = indexOf(addr);
    const bool hit = tag[i] == lineBaseOf(addr);
    const bool write = isWrite(p.ref.type);

    if (p.isDma) {
        if (write) {
            ++dmaWrites;
            issue(MBusOpType::MWrite, MBusOpKind::DmaWrite, addr, 1, true,
                  &p.ref.value);
            return;
        }
        ++dmaReads;
        if (!hit) {
            // DMA misses do not allocate.
            ++dmaReadMisses;
            issue(MBusOpType::MRead, MBusOpKind::DmaRead, addr, 1,
                  proto.fillsUpdateMemory, nullptr);
            return;
        }
    } else if (!p.counted) {
        // Count the reference exactly once: a victim write-back
        // re-dispatches it.
        countRef(p.ref, hit);
        p.counted = true;
    }

    if (hit) {
        if (write) {
            applyWriteHit(i, p.ref);
            return;
        }
        const Word value = wordAt(i, addr);
        if (checkObs)
            checkObs->loadObserved(addr, value, *this,
                                   p.isDma ? "dma-hit" : "hit");
        finishHead(value);
        return;
    }

    // A read miss is a fill; a write miss does what the protocol says.
    const WriteMissAction miss = write
        ? proto.writeMiss[_lineWords == 1 ? 0 : 1]
        : WriteMissAction::FillThenWriteHit;
    if (miss == WriteMissAction::WriteThroughAllocate && _lineWords != 1)
        panic("WriteThroughAllocate requires one-word lines");

    // Every miss except a no-allocate write-through first writes back
    // a dirty line in its slot.
    if (miss != WriteMissAction::WriteThroughNoAllocate &&
        needsWriteback(state[i])) {
        issue(MBusOpType::MWrite, MBusOpKind::VictimWrite, tag[i],
              _lineWords, true, &data[i * _lineWords]);
        return;
    }

    switch (miss) {
      case WriteMissAction::FillThenWriteHit:
      case WriteMissAction::ReadOwned:
        issue(miss == WriteMissAction::ReadOwned ? MBusOpType::MReadOwned
                                                 : MBusOpType::MRead,
              MBusOpKind::Fill, lineBaseOf(addr), _lineWords,
              proto.fillsUpdateMemory, nullptr);
        break;
      case WriteMissAction::WriteThroughAllocate:
      case WriteMissAction::WriteThroughNoAllocate:
        p.installOnWriteThrough =
            miss == WriteMissAction::WriteThroughAllocate;
        issue(MBusOpType::MWrite, MBusOpKind::WriteThrough, addr, 1, true,
              &p.ref.value);
        break;
    }
}

WriteHitAction
Cache::writeHitAction(LineState s) const
{
    const WriteHitAction action = proto.onWriteHit(s);
    if (action == WriteHitAction::Illegal)
        panic("%s write hit in state %s", proto.name, toString(s));
    return action;
}

void
Cache::applyWriteHit(std::size_t index, const MemRef &ref)
{
    switch (writeHitAction(state[index])) {
      case WriteHitAction::Illegal:
        break;  // writeHitAction panicked
      case WriteHitAction::Silent:
        writeHeld(ref, LineState::Dirty, "write-hit", true);
        finishHead(0);
        break;
      case WriteHitAction::WriteThrough:
        issue(MBusOpType::MWrite, MBusOpKind::WriteThrough, ref.addr, 1,
              true, &ref.value);
        break;
      case WriteHitAction::Update:
        issue(MBusOpType::MWrite, MBusOpKind::Update, ref.addr, 1, false,
              &ref.value);
        break;
      case WriteHitAction::Invalidate:
        issue(MBusOpType::MInvalidate, MBusOpKind::Invalidate, ref.addr,
              1, false, nullptr);
        break;
    }
}

void
Cache::writeHeld(const MemRef &ref, LineState next, const char *cause,
                 bool serializes)
{
    const std::size_t i = indexOf(ref.addr);
    if (tag[i] != lineBaseOf(ref.addr))
        return;
    wordAt(i, ref.addr) = ref.value;
    const LineState old = state[i];
    setLine(i, tag[i], next);
    traceLine(tag[i], old, next, cause);
    if (serializes && checkObs)
        checkObs->writeSerialized(ref.addr, ref.value, *this, cause);
}

void
Cache::install(std::size_t index, Addr byte_addr, LineState s,
               const char *cause)
{
    const Addr base = lineBaseOf(byte_addr);
    if (tag[index] != kNoLine && tag[index] != base)
        traceLine(tag[index], state[index], LineState::Invalid,
                  "evicted-clean");
    setLine(index, base, s);
    traceLine(base, LineState::Invalid, s, cause);
}

void
Cache::finishHead(Word value)
{
    Callback cb = std::move(queue.front().cb);
    queue.erase(queue.begin());
    engineBusy = false;
    if (cb)
        cb(value);
    if (!queue.empty() && !engineBusy)
        dispatchHead();
}

void
Cache::issue(MBusOpType type, MBusOpKind kind, Addr addr, unsigned words,
             bool updates_memory, const Word *src)
{
    MBusTransaction txn;
    txn.type = type;
    txn.kind = kind;
    txn.addr = addr;
    txn.words = words;
    if (src)
        std::copy_n(src, words, txn.data.begin());
    txn.updatesMemory = updates_memory;
    txn.initiator = this;
    engineBusy = true;
    bus.request(txn);
}

const SnoopRule &
Cache::snoopRule(std::size_t index, const MBusTransaction &txn) const
{
    // snoopEvent judges coverage by length: a transaction must be one
    // word, or the whole line from its base.
    if (txn.words > _lineWords ||
        (txn.words == _lineWords && txn.addr != tag[index])) {
        panic("%s: %u-word %s at 0x%x is neither one word nor line "
              "0x%x", _name.c_str(), txn.words, toString(txn.type),
              txn.addr, tag[index]);
    }
    const SnoopRule &rule =
        proto.onSnoop(state[index], snoopEvent(txn, _lineWords));
    if (!rule.legal) {
        panic("%s cache snooped %s in state %s", proto.name,
              toString(txn.type), toString(state[index]));
    }
    return rule;
}

SnoopReply
Cache::snoopProbe(const MBusTransaction &txn)
{
    const std::size_t i = indexOf(txn.addr);
    if (tag[i] != lineBaseOf(txn.addr))
        return SnoopReply{};
    // Every holder asserts MShared, whatever its state.
    return SnoopReply{true, snoopRule(i, txn).supply};
}

void
Cache::snoopSupplyData(const MBusTransaction &txn, Word *out)
{
    const std::size_t i = indexOf(txn.addr);
    if (tag[i] != lineBaseOf(txn.addr))
        panic("%s asked to supply a line it does not hold",
              _name.c_str());
    for (unsigned w = 0; w < txn.words; ++w)
        out[w] = wordAt(i, txn.addr + w * bytesPerWord);
}

void
Cache::snoopComplete(const MBusTransaction &txn)
{
    const std::size_t i = indexOf(txn.addr);
    const Addr base = tag[i];
    if (base != lineBaseOf(txn.addr))
        return;
    // A DMA read installs no cached copy anywhere, so no snoop
    // transition is warranted: in particular a dirty owner must NOT
    // demote to clean-shared, because the bus captured only the
    // word(s) the engine asked for - the rest of the line would be
    // orphaned dirty with nobody left owing the write-back.
    if (txn.type == MBusOpType::MRead && txn.kind == MBusOpKind::DmaRead)
        return;
    const LineState old = state[i];
    const SnoopRule &rule = snoopRule(i, txn);
    if (rule.merge) {
        for (unsigned w = 0; w < txn.words; ++w) {
            const Addr a = txn.addr + w * bytesPerWord;
            if (a >= base && a < base + lineBytes)
                wordAt(i, a) = txn.data[w];
        }
    }
    setLine(i, base, rule.next);
    static const char *snoop_causes[4] = {
        "snoop-read", "snoop-write", "snoop-read-owned",
        "snoop-invalidate"
    };
    traceLine(base, old, rule.next,
              snoop_causes[static_cast<int>(txn.type)]);
    if (rule.next == LineState::Invalid)
        ++invalidationsReceived;
    else if (txn.type == MBusOpType::MWrite)
        ++updatesReceived;
}

void
Cache::transactionGranted(MBusTransaction &txn)
{
    const std::size_t i = indexOf(txn.addr);
    const bool held = tag[i] == lineBaseOf(txn.addr);
    switch (txn.kind) {
      case MBusOpKind::VictimWrite:
        // The victim's data is driven now, not latched at request
        // time.  A snooped write that merged into the line while this
        // request waited for the bus (a DMA write - the I/O cache
        // outranks us in arbitration) must be part of what we write
        // back, or memory ends up holding pre-DMA data.
        if (held) {
            std::copy_n(&data[i * _lineWords], txn.words,
                        txn.data.begin());
        } else {
            // The line was invalidated while the write-back waited (a
            // full-line overwrite snooped by an invalidation
            // protocol): drive nothing, or we would overwrite the
            // newer data.
            txn.updatesMemory = false;
        }
        break;
      case MBusOpKind::Invalidate:
        // Another writer's snoop took our copy while this MInvalidate
        // waited: we lost the ownership race.  Invalidating now would
        // destroy the winner's dirty line, so go for the line as a
        // write miss does under every invalidating protocol.
        if (!held) {
            txn.type = MBusOpType::MReadOwned;
            txn.kind = MBusOpKind::Fill;
            txn.addr = lineBaseOf(txn.addr);
            txn.words = _lineWords;
            txn.updatesMemory = proto.fillsUpdateMemory;
        }
        break;
      default:
        break;
    }
}

void
Cache::transactionDone(const MBusTransaction &txn)
{
    if (queue.empty())
        panic("%s: bus completion with no pending access",
              _name.c_str());
    engineBusy = false;
    PendingAccess &p = queue.front();
    const std::size_t i = indexOf(p.ref.addr);

    switch (txn.kind) {
      case MBusOpKind::VictimWrite: {
        ++victimWrites;
        const Addr base = tag[i];
        const LineState old = state[i];
        setLine(i, base, LineState::Invalid);
        traceLine(base, old, LineState::Invalid, "victim-writeback");
        dispatchHead();
        break;
      }

      case MBusOpKind::Fill:
        ++fills;
        std::copy_n(txn.data.begin(), _lineWords, &data[i * _lineWords]);
        if (txn.type == MBusOpType::MReadOwned) {
            // The write serializes at the commit of the MReadOwned
            // that carried it (other copies died in its snoop).
            install(i, p.ref.addr, proto.ownedState, "read-owned");
            writeHeld(p.ref, proto.ownedState, "read-owned", true);
            finishHead(0);
        } else {
            install(i, p.ref.addr, proto.fillState[txn.mshared], "fill");
            if (isWrite(p.ref.type)) {
                applyWriteHit(i, p.ref);
            } else {
                const Word value = wordAt(i, p.ref.addr);
                if (checkObs)
                    checkObs->loadObserved(p.ref.addr, value, *this,
                                           "fill");
                finishHead(value);
            }
        }
        break;

      case MBusOpKind::WriteThrough: {
        ++(txn.mshared ? wtMshared : wtNoMshared);
        const LineState next = proto.afterWriteThrough[txn.mshared];
        if (p.installOnWriteThrough) {
            std::fill_n(&data[i * _lineWords], _lineWords, 0);
            install(i, p.ref.addr, next, "write-allocate-through");
        }
        writeHeld(p.ref, next, "write-through");
        finishHead(0);
        break;
      }

      case MBusOpKind::Update:
        ++updatesSent;
        writeHeld(p.ref, proto.afterWriteThrough[txn.mshared], "update");
        finishHead(0);
        break;

      case MBusOpKind::Invalidate:
        ++invalidatesSent;
        // Held: transactionGranted turned an MInvalidate whose line
        // was gone into an MReadOwned, and nothing snoops the line
        // while the bus is ours.
        writeHeld(p.ref, proto.ownedState, "invalidate", true);
        finishHead(0);
        break;

      case MBusOpKind::DmaRead:
        if (checkObs)
            checkObs->loadObserved(p.ref.addr, txn.data[0], *this,
                                   "dma-fill");
        finishHead(txn.data[0]);
        break;

      case MBusOpKind::DmaWrite:
        // A partial DMA write into a line we own (Dirty, or
        // SharedDirty under Berkeley/Dragon) must not launder the
        // ownership state: memory received only the DMA word, so we
        // still owe it the others.  Otherwise memory now holds
        // everything we do, so the copy is clean - the same state a
        // fresh fill would install, NOT afterWriteThrough, whose
        // Dragon meaning (update: writer becomes owner, memory
        // unchanged) would claim ownership a snooping owner never
        // gave up.
        writeHeld(p.ref,
                  needsWriteback(state[i]) && _lineWords > 1
                      ? state[i]
                      : proto.fillState[txn.mshared],
                  "dma-write");
        finishHead(0);
        break;
    }
}

void
Cache::flushFunctional()
{
    MainMemory &memory = bus.memorySystem();
    for (std::size_t i = 0; i < tag.size(); ++i) {
        if (needsWriteback(state[i])) {
            for (unsigned w = 0; w < _lineWords; ++w)
                memory.write(tag[i] + w * bytesPerWord,
                             data[i * _lineWords + w]);
        }
        setLine(i, kNoLine, LineState::Invalid);
    }
}

} // namespace firefly
