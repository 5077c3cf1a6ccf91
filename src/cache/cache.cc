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
    _lineWords = geom.lineBytes / bytesPerWord;
    lineBytes = geom.lineBytes;
    lines.resize(geom.cacheBytes / geom.lineBytes);
    while ((Addr{1} << lineShift) < lineBytes)
        ++lineShift;
    linesPow2 = (lines.size() & (lines.size() - 1)) == 0;

    busIndex = bus.attachCache(this, lineBytes, lines.size());

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

const CacheLine &
Cache::lineAt(Addr byte_addr) const
{
    return lineFor(byte_addr);
}

bool
Cache::holds(Addr byte_addr) const
{
    const CacheLine &line = lineFor(byte_addr);
    return line.valid() && tagMatch(line, byte_addr);
}

void
Cache::writeWord(CacheLine &line, Addr byte_addr, Word value)
{
    line.data[(byte_addr - line.base) / bytesPerWord] = value;
}

double
Cache::dirtyFraction() const
{
    std::size_t valid = 0;
    std::size_t dirty = 0;
    for (const auto &line : lines) {
        if (line.valid()) {
            ++valid;
            if (needsWriteback(line.state))
                ++dirty;
        }
    }
    return valid ? static_cast<double>(dirty) / valid : 0.0;
}

double
Cache::validFraction() const
{
    const auto valid = std::count_if(lines.begin(), lines.end(),
        [](const CacheLine &l) { return l.valid(); });
    return static_cast<double>(valid) / lines.size();
}

double
Cache::sharedFraction() const
{
    std::size_t valid = 0;
    std::size_t shared = 0;
    for (const auto &line : lines) {
        if (line.valid()) {
            ++valid;
            if (line.state == LineState::Shared ||
                line.state == LineState::SharedDirty) {
                ++shared;
            }
        }
    }
    return valid ? static_cast<double>(shared) / valid : 0.0;
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
Cache::tryFastPath(const MemRef &ref, Word &out)
{
    CacheLine &line = lineFor(ref.addr);
    const bool hit = line.valid() && tagMatch(line, ref.addr);
    if (!hit)
        return false;

    if (!isWrite(ref.type)) {
        countRef(ref, true);
        out = readWord(line, ref.addr);
        if (checkObs)
            checkObs->loadObserved(ref.addr, out, *this, "hit");
        return true;
    }
    if (writeHitAction(line) == WriteHitAction::Silent) {
        countRef(ref, true);
        writeWord(line, ref.addr, ref.value);
        const LineState old = line.state;
        line.state = LineState::Dirty;
        traceLine(line.base, old, line.state, "write-hit");
        // The line is exclusive (a silent write requires it), so the
        // local write instant is the global serialization instant.
        if (checkObs)
            checkObs->writeSerialized(ref.addr, ref.value, *this,
                                      "write-hit");
        out = 0;
        return true;
    }
    return false;
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

    if (queue.empty() && !engineBusy) {
        Word out = 0;
        if (tryFastPath(ref, out))
            return {AccessOutcome::Hit, out};
    }

    queue.push_back(PendingAccess{ref, false, std::move(cb),
                                  Stage::Start, false});
    if (!engineBusy && queue.size() == 1)
        startHead();
    return {AccessOutcome::Pending, 0};
}

void
Cache::dmaAccess(const MemRef &ref, Callback cb)
{
    if (ref.addr % bytesPerWord != 0)
        panic("%s: unaligned DMA to 0x%x", _name.c_str(), ref.addr);

    queue.push_back(PendingAccess{ref, true, std::move(cb),
                                  Stage::Start, false});
    if (!engineBusy && queue.size() == 1)
        startHead();
}

void
Cache::startHead()
{
    dispatchHead();
}

void
Cache::dispatchHead()
{
    PendingAccess &p = queue.front();
    CacheLine &line = lineFor(p.ref.addr);
    const bool hit = line.valid() && tagMatch(line, p.ref.addr);

    if (p.isDma) {
        if (isWrite(p.ref.type)) {
            ++dmaWrites;
            issueWriteThrough(p.ref, true, Stage::DmaWrite,
                              MBusOpKind::DmaWrite);
        } else {
            ++dmaReads;
            if (hit) {
                const Word value = readWord(line, p.ref.addr);
                if (checkObs)
                    checkObs->loadObserved(p.ref.addr, value, *this,
                                           "dma-hit");
                finishHead(value);
            } else {
                ++dmaReadMisses;
                MBusTransaction txn;
                txn.type = MBusOpType::MRead;
                txn.kind = MBusOpKind::DmaRead;
                txn.addr = p.ref.addr;
                txn.words = 1;  // DMA misses do not allocate
                txn.updatesMemory = proto.fillsUpdateMemory;
                txn.initiator = this;
                p.stage = Stage::DmaRead;
                engineBusy = true;
                bus.request(txn);
            }
        }
        return;
    }

    if (p.stage == Stage::Start) {
        // Count the reference exactly once (restarts after victim
        // writes or lost invalidation races must not recount).
        if (!p.counted) {
            countRef(p.ref, hit);
            p.counted = true;
        }
    }

    if (!isWrite(p.ref.type)) {
        if (hit) {
            const Word value = readWord(line, p.ref.addr);
            if (checkObs)
                checkObs->loadObserved(p.ref.addr, value, *this, "hit");
            finishHead(value);
            return;
        }
        if (line.valid() && needsWriteback(line.state)) {
            issueVictimWriteFor(p.ref.addr);
            return;
        }
        issueFill(p.ref.addr, Stage::Fill);
        return;
    }

    // Processor write.
    if (hit) {
        applyWriteHit(line, p.ref);
        return;
    }

    switch (proto.writeMiss[_lineWords == 1 ? 0 : 1]) {
      case WriteMissAction::WriteThroughAllocate:
        if (_lineWords != 1)
            panic("WriteThroughAllocate requires one-word lines");
        if (line.valid() && needsWriteback(line.state)) {
            issueVictimWriteFor(p.ref.addr);
            return;
        }
        p.installOnWriteThrough = true;
        issueWriteThrough(p.ref, true, Stage::WriteThrough,
                          MBusOpKind::WriteThrough);
        return;

      case WriteMissAction::WriteThroughNoAllocate:
        issueWriteThrough(p.ref, true, Stage::WriteThrough,
                          MBusOpKind::WriteThrough);
        return;

      case WriteMissAction::FillThenWriteHit:
        if (line.valid() && needsWriteback(line.state)) {
            issueVictimWriteFor(p.ref.addr);
            return;
        }
        issueFill(p.ref.addr, Stage::Fill);
        return;

      case WriteMissAction::ReadOwned:
        if (line.valid() && needsWriteback(line.state)) {
            issueVictimWriteFor(p.ref.addr);
            return;
        }
        issueFill(p.ref.addr, Stage::ReadOwned);
        return;
    }
}

WriteHitAction
Cache::writeHitAction(const CacheLine &line) const
{
    const WriteHitAction action = proto.onWriteHit(line.state);
    if (action == WriteHitAction::Illegal)
        panic("%s write hit in state %s", proto.name,
              toString(line.state));
    return action;
}

void
Cache::applyWriteHit(CacheLine &line, const MemRef &ref)
{
    switch (writeHitAction(line)) {
      case WriteHitAction::Illegal:
        break;  // writeHitAction panicked
      case WriteHitAction::Silent: {
        writeWord(line, ref.addr, ref.value);
        const LineState old = line.state;
        line.state = LineState::Dirty;
        traceLine(line.base, old, line.state, "write-hit");
        if (checkObs)
            checkObs->writeSerialized(ref.addr, ref.value, *this,
                                      "write-hit");
        finishHead(0);
        break;
      }
      case WriteHitAction::WriteThrough:
        issueWriteThrough(ref, true, Stage::WriteThrough,
                          MBusOpKind::WriteThrough);
        break;
      case WriteHitAction::Update:
        issueWriteThrough(ref, false, Stage::Update, MBusOpKind::Update);
        break;
      case WriteHitAction::Invalidate:
        issueInvalidate(ref.addr);
        break;
    }
}

void
Cache::install(CacheLine &line, Addr byte_addr)
{
    line.base = lineBaseOf(byte_addr);
    bus.noteInstall(busIndex, line.base);
}

void
Cache::finishHead(Word data)
{
    Callback cb = std::move(queue.front().cb);
    queue.pop_front();
    engineBusy = false;
    if (cb)
        cb(data);
    if (!queue.empty() && !engineBusy)
        startHead();
}

void
Cache::issueVictimWriteFor(Addr target_addr)
{
    CacheLine &victim = lineFor(target_addr);
    MBusTransaction txn;
    txn.type = MBusOpType::MWrite;
    txn.kind = MBusOpKind::VictimWrite;
    txn.addr = victim.base;
    txn.words = _lineWords;
    for (unsigned i = 0; i < _lineWords; ++i)
        txn.data[i] = victim.data[i];
    txn.updatesMemory = true;
    txn.initiator = this;
    queue.front().stage = Stage::VictimWrite;
    engineBusy = true;
    bus.request(txn);
}

void
Cache::issueFill(Addr byte_addr, Stage stage)
{
    MBusTransaction txn;
    txn.type = stage == Stage::ReadOwned ? MBusOpType::MReadOwned
                                         : MBusOpType::MRead;
    txn.kind = MBusOpKind::Fill;
    txn.addr = lineBaseOf(byte_addr);
    txn.words = _lineWords;
    txn.updatesMemory = proto.fillsUpdateMemory;
    txn.initiator = this;
    queue.front().stage = stage;
    engineBusy = true;
    bus.request(txn);
}

void
Cache::issueWriteThrough(const MemRef &ref, bool updates_memory,
                         Stage stage, MBusOpKind kind)
{
    MBusTransaction txn;
    txn.type = MBusOpType::MWrite;
    txn.kind = kind;
    txn.addr = ref.addr;
    txn.words = 1;
    txn.data[0] = ref.value;
    txn.updatesMemory = updates_memory;
    txn.initiator = this;
    queue.front().stage = stage;
    engineBusy = true;
    bus.request(txn);
}

void
Cache::issueInvalidate(Addr byte_addr)
{
    MBusTransaction txn;
    txn.type = MBusOpType::MInvalidate;
    txn.kind = MBusOpKind::Invalidate;
    txn.addr = byte_addr;
    txn.words = 1;
    txn.updatesMemory = false;
    txn.initiator = this;
    queue.front().stage = Stage::Invalidate;
    engineBusy = true;
    bus.request(txn);
}

const SnoopRule &
Cache::snoopRule(const CacheLine &line, const MBusTransaction &txn) const
{
    // snoopEvent judges coverage by length: a transaction must be one
    // word, or the whole line from its base.
    if (txn.words > _lineWords ||
        (txn.words == _lineWords && txn.addr != line.base)) {
        panic("%s: %u-word %s at 0x%x is neither one word nor line "
              "0x%x", _name.c_str(), txn.words, toString(txn.type),
              txn.addr, line.base);
    }
    const SnoopRule &rule =
        proto.onSnoop(line.state, snoopEvent(txn, _lineWords));
    if (!rule.legal) {
        panic("%s cache snooped %s in state %s", proto.name,
              toString(txn.type), toString(line.state));
    }
    return rule;
}

SnoopReply
Cache::snoopProbe(const MBusTransaction &txn)
{
    const CacheLine &line = lineFor(txn.addr);
    if (!line.valid() || !tagMatch(line, txn.addr))
        return SnoopReply{};
    // Every holder asserts MShared, whatever its state.
    return SnoopReply{true, snoopRule(line, txn).supply};
}

void
Cache::snoopSupplyData(const MBusTransaction &txn, Word *out)
{
    const CacheLine &line = lineFor(txn.addr);
    if (!line.valid() || !tagMatch(line, txn.addr))
        panic("%s asked to supply a line it does not hold",
              _name.c_str());
    for (unsigned i = 0; i < txn.words; ++i) {
        const Addr a = txn.addr + i * bytesPerWord;
        out[i] = line.data[(a - line.base) / bytesPerWord];
    }
}

void
Cache::snoopComplete(const MBusTransaction &txn)
{
    CacheLine &line = lineFor(txn.addr);
    if (!line.valid() || !tagMatch(line, txn.addr))
        return;
    // A DMA read installs no cached copy anywhere, so no snoop
    // transition is warranted: in particular a dirty owner must NOT
    // demote to clean-shared, because the bus captured only the
    // word(s) the engine asked for - the rest of the line would be
    // orphaned dirty with nobody left owing the write-back.
    if (txn.type == MBusOpType::MRead && txn.kind == MBusOpKind::DmaRead)
        return;
    const bool was_valid = line.valid();
    const LineState old = line.state;
    const SnoopRule &rule = snoopRule(line, txn);
    if (rule.merge) {
        for (unsigned i = 0; i < txn.words; ++i) {
            const Addr a = txn.addr + i * bytesPerWord;
            if (a >= line.base && a < line.base + lineBytes)
                writeWord(line, a, txn.data[i]);
        }
    }
    line.state = rule.next;
    static const char *snoop_causes[4] = {
        "snoop-read", "snoop-write", "snoop-read-owned",
        "snoop-invalidate"
    };
    traceLine(line.base, old, line.state,
              snoop_causes[static_cast<int>(txn.type)]);
    if (was_valid && !line.valid()) {
        ++invalidationsReceived;
    } else if (txn.type == MBusOpType::MWrite && line.valid()) {
        ++updatesReceived;
    }
}

void
Cache::refreshWriteData(MBusTransaction &txn)
{
    if (txn.kind != MBusOpKind::VictimWrite)
        return;
    // The victim's data is driven in the bus write-data cycle, not
    // latched at request time.  A snooped write that merged into the
    // line while this request waited for the bus (a DMA write - the
    // I/O cache outranks us in arbitration) must be part of what we
    // write back, or memory ends up holding pre-DMA data.
    CacheLine &line = lineFor(txn.addr);
    if (line.valid() && line.base == txn.addr) {
        for (unsigned i = 0; i < txn.words; ++i)
            txn.data[i] = line.data[i];
    } else {
        // The line was invalidated while the write-back waited (a
        // full-line overwrite snooped by an invalidation protocol):
        // drive nothing, or we would overwrite the newer data.
        txn.updatesMemory = false;
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

    switch (p.stage) {
      case Stage::VictimWrite: {
        ++victimWrites;
        CacheLine &victim = lineFor(p.ref.addr);
        const LineState old = victim.state;
        victim.state = LineState::Invalid;
        traceLine(victim.base, old, victim.state, "victim-writeback");
        p.stage = Stage::Start;
        dispatchHead();
        break;
      }

      case Stage::Fill: {
        ++fills;
        CacheLine &line = lineFor(p.ref.addr);
        if (line.valid() && line.base != lineBaseOf(p.ref.addr))
            traceLine(line.base, line.state, LineState::Invalid,
                      "evicted-clean");
        install(line, p.ref.addr);
        for (unsigned i = 0; i < _lineWords; ++i)
            line.data[i] = txn.data[i];
        line.state = proto.fillState[txn.mshared];
        traceLine(line.base, LineState::Invalid, line.state, "fill");
        if (!isWrite(p.ref.type)) {
            const Word value = readWord(line, p.ref.addr);
            if (checkObs)
                checkObs->loadObserved(p.ref.addr, value, *this, "fill");
            finishHead(value);
        } else {
            applyWriteHit(line, p.ref);
        }
        break;
      }

      case Stage::ReadOwned: {
        ++fills;
        CacheLine &line = lineFor(p.ref.addr);
        if (line.valid() && line.base != lineBaseOf(p.ref.addr))
            traceLine(line.base, line.state, LineState::Invalid,
                      "evicted-clean");
        install(line, p.ref.addr);
        for (unsigned i = 0; i < _lineWords; ++i)
            line.data[i] = txn.data[i];
        writeWord(line, p.ref.addr, p.ref.value);
        line.state = proto.ownedState;
        traceLine(line.base, LineState::Invalid, line.state,
                  "read-owned");
        // The write serializes at the commit of the MReadOwned that
        // carried it (other copies died in its snoop).
        if (checkObs)
            checkObs->writeSerialized(p.ref.addr, p.ref.value, *this,
                                      "read-owned");
        finishHead(0);
        break;
      }

      case Stage::WriteThrough: {
        if (txn.mshared)
            ++wtMshared;
        else
            ++wtNoMshared;
        CacheLine &line = lineFor(p.ref.addr);
        if (p.installOnWriteThrough) {
            if (line.valid() && line.base != lineBaseOf(p.ref.addr))
                traceLine(line.base, line.state, LineState::Invalid,
                          "evicted-clean");
            install(line, p.ref.addr);
            line.data.fill(0);
            writeWord(line, p.ref.addr, p.ref.value);
            line.state = proto.afterWriteThrough[txn.mshared];
            traceLine(line.base, LineState::Invalid, line.state,
                      "write-allocate-through");
        } else if (line.valid() && tagMatch(line, p.ref.addr)) {
            writeWord(line, p.ref.addr, p.ref.value);
            const LineState old = line.state;
            line.state = proto.afterWriteThrough[txn.mshared];
            traceLine(line.base, old, line.state, "write-through");
        }
        finishHead(0);
        break;
      }

      case Stage::Update: {
        ++updatesSent;
        CacheLine &line = lineFor(p.ref.addr);
        if (line.valid() && tagMatch(line, p.ref.addr)) {
            writeWord(line, p.ref.addr, p.ref.value);
            const LineState old = line.state;
            line.state = proto.afterWriteThrough[txn.mshared];
            traceLine(line.base, old, line.state, "update");
        }
        finishHead(0);
        break;
      }

      case Stage::Invalidate: {
        ++invalidatesSent;
        CacheLine &line = lineFor(p.ref.addr);
        if (line.valid() && tagMatch(line, p.ref.addr)) {
            writeWord(line, p.ref.addr, p.ref.value);
            const LineState old = line.state;
            line.state = proto.ownedState;
            traceLine(line.base, old, line.state, "invalidate");
            if (checkObs)
                checkObs->writeSerialized(p.ref.addr, p.ref.value,
                                          *this, "invalidate");
            finishHead(0);
        } else {
            // We lost an ownership race: another cache invalidated
            // our copy while our MInvalidate waited for the bus.
            // Restart as a write miss (will use MReadOwned).
            p.stage = Stage::Start;
            dispatchHead();
        }
        break;
      }

      case Stage::DmaRead:
        if (checkObs)
            checkObs->loadObserved(p.ref.addr, txn.data[0], *this,
                                   "dma-fill");
        finishHead(txn.data[0]);
        break;

      case Stage::DmaWrite: {
        CacheLine &line = lineFor(p.ref.addr);
        if (line.valid() && tagMatch(line, p.ref.addr)) {
            writeWord(line, p.ref.addr, p.ref.value);
            // A partial DMA write into a line we own (Dirty, or
            // SharedDirty under Berkeley/Dragon) must not launder the
            // ownership state: memory received only the DMA word, so
            // we still owe it the others.  Otherwise memory now holds
            // everything we do, so the copy is clean - the same state
            // a fresh fill would install, NOT afterWriteThrough,
            // whose Dragon meaning (update: writer becomes owner,
            // memory unchanged) would claim ownership a snooping
            // owner never gave up.
            if (!(needsWriteback(line.state) && _lineWords > 1)) {
                const LineState old = line.state;
                line.state = proto.fillState[txn.mshared];
                traceLine(line.base, old, line.state, "dma-write");
            }
        }
        finishHead(0);
        break;
      }

      case Stage::Start:
        panic("%s: bus completion in Stage::Start", _name.c_str());
    }
}

void
Cache::flushFunctional()
{
    MainMemory &memory = bus.memorySystem();
    for (auto &line : lines) {
        if (line.valid() && needsWriteback(line.state)) {
            for (unsigned i = 0; i < _lineWords; ++i)
                memory.write(line.base + i * bytesPerWord, line.data[i]);
        }
        line.state = LineState::Invalid;
    }
}

} // namespace firefly
