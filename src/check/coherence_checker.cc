#include "check/coherence_checker.hh"

#include <algorithm>
#include <sstream>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly::check
{

namespace
{

std::string
clientName(const MBusClient *client)
{
    return client ? client->busClientName() : "?";
}

} // namespace

CoherenceChecker::CoherenceChecker(Simulator &sim, MBus &bus,
                                   MainMemory &memory, ProtocolKind kind,
                                   CheckerConfig config)
    : sim(sim),
      memory(memory),
      kind(kind),
      cfg(config),
      golden(memory),
      scanner(kind, memory),
      statGroup("checker")
{
    bus.addCommitObserver(
        [this](const MBusTransaction &txn) { busCommit(txn); });
    bus.addSettleObserver(
        [this](const MBusTransaction &txn) { busSettled(txn); });

    statGroup.addCounter(&loadsChecked, "loads_checked",
                         "load values validated against the oracle");
    statGroup.addCounter(&writesTracked, "writes_tracked",
                         "write serializations recorded in the oracle");
    statGroup.addCounter(&txnsObserved, "txns_observed",
                         "bus transactions observed");
    statGroup.addCounter(&lineScans, "line_scans",
                         "per-transaction line invariant scans");
    statGroup.addCounter(&fullScans, "full_scans",
                         "whole-machine invariant scans");
    statGroup.addCounter(&onChipChecks, "onchip_checks",
                         "on-chip cache hits validated by snapshot");
}

void
CoherenceChecker::watch(Cache &cache)
{
    caches.push_back(&cache);
    scanner.addCache(&cache);
    cache.setCoherenceObserver(this);
}

void
CoherenceChecker::watch(OnChipCache &onchip)
{
    onchipLines.try_emplace(&onchip);
    onchip.setCoherenceObserver(this);
}

Addr
CoherenceChecker::lineBaseOf(Addr addr) const
{
    return addr - addr % scanner.lineBytes();
}

// --- serialization points -----------------------------------------------

void
CoherenceChecker::writeSerialized(Addr addr, Word value, const Cache &by,
                                  const char *how)
{
    (void)by;
    (void)how;
    golden.serialize(sim.now(), addr, value);
    ++writesTracked;
    // Silent write hits and the writes an MReadOwned/MInvalidate
    // carries change the oracle (and a cached copy) with no settle on
    // this line's behalf - a broken protocol's stale copies elsewhere
    // are only found if the line is re-checked.
    markDirty(addr, 1);
}

void
CoherenceChecker::loadObserved(Addr addr, Word value, const Cache &by,
                               const char *how)
{
    ++loadsChecked;
    if (golden.admissible(sim.now(), addr, value))
        return;
    std::ostringstream os;
    os << "load validation: " << by.name() << " (" << how << ") read "
       << obs::hexAddr(addr) << " = " << obs::hexAddr(value)
       << " but the oracle says " << obs::hexAddr(golden.current(addr))
       << " (serialized @" << golden.writtenAt(addr) << ")";
    fail(addr, os.str());
}

void
CoherenceChecker::requireCurrent(Addr addr, Word value,
                                 const std::string &who)
{
    if (value == golden.current(addr))
        return;
    std::ostringstream os;
    os << "serialized load: " << who << " read " << obs::hexAddr(addr)
       << " = " << obs::hexAddr(value) << " but the oracle says "
       << obs::hexAddr(golden.current(addr)) << " (serialized @"
       << golden.writtenAt(addr) << ")";
    fail(addr, os.str());
}

void
CoherenceChecker::busCommit(const MBusTransaction &txn)
{
    // Record first, so the failing transaction itself shows up in the
    // replay log of any diagnostic it triggers.
    replay[replayNext] = {sim.now(), txn.type, txn.kind, txn.addr,
                          txn.words, txn.data, txn.mshared,
                          txn.updatesMemory, txn.initiator};
    replayNext = (replayNext + 1) % replay.size();
    replayCount = std::min(replayCount + 1, replay.size());

    if (txn.type != MBusOpType::MWrite)
        return;

    if (txn.kind == MBusOpKind::VictimWrite) {
        // A write-back moves an already-serialized value to memory;
        // it must not change the visible value.  Stale victim data
        // (the bug refreshWriteData exists to prevent) shows up here.
        if (!txn.updatesMemory)
            return;  // squashed: line was invalidated while waiting
        for (unsigned i = 0; i < txn.words; ++i) {
            const Addr a = txn.addr + i * bytesPerWord;
            if (golden.admissible(sim.now(), a, txn.data[i]))
                continue;
            std::ostringstream os;
            os << "victim write-back by " << clientName(txn.initiator)
               << " carries " << obs::hexAddr(txn.data[i]) << " for "
               << obs::hexAddr(a) << " but the oracle says "
               << obs::hexAddr(golden.current(a)) << " (serialized @"
               << golden.writtenAt(a)
               << "); the write-back would destroy a later write";
            fail(a, os.str());
        }
        return;
    }

    // WriteThrough / Update / DmaWrite: the commit cycle is the
    // serialization instant for the carried words.  (Update does not
    // touch memory, but every cached copy adopts the value now.)
    for (unsigned i = 0; i < txn.words; ++i) {
        golden.serialize(sim.now(), txn.addr + i * bytesPerWord,
                         txn.data[i]);
        ++writesTracked;
    }
}

// --- invariant scans -----------------------------------------------------

void
CoherenceChecker::markDirty(Addr addr, unsigned words)
{
    if (!cfg.fullScanPeriod)
        return;  // no periodic scan would ever drain the set
    const Addr line_bytes = scanner.lineBytes();
    const Addr last = lineBaseOf(addr + (std::max(words, 1u) - 1) *
                                            bytesPerWord);
    for (Addr base = lineBaseOf(addr);; base += line_bytes) {
        if (dirtyLines.empty() || dirtyLines.back() != base)
            dirtyLines.push_back(base);
        if (base == last)
            break;
    }
}

void
CoherenceChecker::scanDirtyLines(std::vector<std::string> &violations)
{
    // Ascending order, so the report matches what a full scan would
    // say about these lines, in the same order.
    std::sort(dirtyLines.begin(), dirtyLines.end());
    dirtyLines.erase(std::unique(dirtyLines.begin(), dirtyLines.end()),
                     dirtyLines.end());
    const Cycle now = sim.now();
    scanner.checkLines(dirtyLines, golden, now, violations);
    if (!violations.empty())
        return;

    // Every check is a function of cache states, cached data, memory
    // and the oracle, which only change through the dirty-line feeds
    // - except I4's race window, under which a copy holding a
    // superseded value turns inadmissible by the clock alone.  Lines
    // with a word still inside the window stay for the next scan.
    const unsigned words = scanner.lineBytes() / bytesPerWord;
    std::erase_if(dirtyLines, [&](Addr base) {
        for (unsigned w = 0; w < words; ++w) {
            if (golden.inRaceWindow(now, base + w * bytesPerWord))
                return false;
        }
        return true;
    });
}

void
CoherenceChecker::busSettled(const MBusTransaction &txn)
{
    ++txnsObserved;
    // Fills, snoop transitions, victim write-backs, DMA and every
    // memory write (memory only changes through the bus) all land on
    // the lines the transaction spans.
    markDirty(txn.addr, txn.words);

    std::vector<std::string> violations;
    scanner.checkLine(txn.addr, golden, sim.now(), violations);
    ++lineScans;

    if (violations.empty() && cfg.fullScanPeriod &&
        txnsObserved.value() % cfg.fullScanPeriod == 0) {
        scanDirtyLines(violations);
        ++fullScans;
    }

    if (!violations.empty()) {
        std::ostringstream os;
        os << "after " << toString(txn.type) << " ("
           << toString(txn.kind) << ") " << obs::hexAddr(txn.addr)
           << " by " << clientName(txn.initiator);
        for (const std::string &v : violations)
            os << "\n  " << v;
        fail(txn.addr, os.str());
    }
}

void
CoherenceChecker::finalCheck()
{
    std::vector<std::string> violations;
    scanner.fullScan(golden, sim.now(), violations);
    ++fullScans;
    if (!violations.empty()) {
        std::ostringstream os;
        os << "final scan";
        for (const std::string &v : violations)
            os << "\n  " << v;
        fail(0, os.str());
    }
}

// --- on-chip cache snapshots ---------------------------------------------

void
CoherenceChecker::onChipInstalled(Addr line_base, const OnChipCache &by)
{
    auto it = onchipLines.find(&by);
    if (it == onchipLines.end())
        return;
    const unsigned words = OnChipCache::lineBytes / bytesPerWord;
    std::vector<Word> values(words);
    for (unsigned i = 0; i < words; ++i)
        values[i] = golden.current(line_base + i * bytesPerWord);
    it->second[line_base] = std::move(values);
}

void
CoherenceChecker::onChipHit(const MemRef &ref, const OnChipCache &by)
{
    auto it = onchipLines.find(&by);
    if (it == onchipLines.end())
        return;
    const Addr base = ref.addr - ref.addr % OnChipCache::lineBytes;
    const auto line = it->second.find(base);
    if (line == it->second.end())
        return;  // installed before the checker attached
    ++onChipChecks;
    const Addr word_addr = ref.addr - ref.addr % bytesPerWord;
    const unsigned index = (word_addr - base) / bytesPerWord;
    const Word held = line->second[index];
    if (golden.admissible(sim.now(), word_addr, held))
        return;
    std::ostringstream os;
    os << "on-chip staleness: " << by.name() << " hit "
       << obs::hexAddr(word_addr) << " would serve "
       << obs::hexAddr(held) << " but the oracle says "
       << obs::hexAddr(golden.current(word_addr)) << " (serialized @"
       << golden.writtenAt(word_addr)
       << "); the entry should have been dropped by the bus-write "
          "repair";
    fail(word_addr, os.str());
}

// --- diagnostics ---------------------------------------------------------

std::string
CoherenceChecker::describeLine(Addr line_base) const
{
    std::ostringstream os;
    for (const Cache *cache : caches) {
        os << "\n  " << cache->name() << ": ";
        if (!cache->holds(line_base)) {
            os << "not resident";
            continue;
        }
        const Cache::LineView line = cache->lineAt(line_base);
        os << toString(line.state) << " data=[";
        for (unsigned i = 0; i < cache->lineWords(); ++i)
            os << (i ? " " : "") << obs::hexAddr(line.data[i]);
        os << "]";
    }
    const unsigned words =
        caches.empty() ? 1 : caches.front()->lineWords();
    os << "\n  memory: [";
    for (unsigned i = 0; i < words; ++i) {
        os << (i ? " " : "")
           << obs::hexAddr(memory.peek(line_base + i * bytesPerWord));
    }
    os << "]\n  oracle: [";
    for (unsigned i = 0; i < words; ++i) {
        os << (i ? " " : "")
           << obs::hexAddr(golden.current(line_base + i * bytesPerWord));
    }
    os << "]";
    return os.str();
}

std::string
CoherenceChecker::replayFor(Addr line_base) const
{
    const unsigned words =
        caches.empty() ? 1 : caches.front()->lineWords();
    const Addr line_bytes = words * bytesPerWord;
    std::ostringstream os;
    os << "\n  last bus transactions touching "
       << obs::hexAddr(line_base) << ":";
    bool any = false;
    for (std::size_t n = 0; n < replayCount; ++n) {
        const TxnRecord &rec =
            replay[(replayNext + replay.size() - replayCount + n) %
                   replay.size()];
        const Addr rec_end = rec.addr + rec.words * bytesPerWord;
        if (rec_end <= line_base || rec.addr >= line_base + line_bytes)
            continue;
        any = true;
        os << "\n    @" << rec.when << " " << toString(rec.type) << " ("
           << toString(rec.kind) << ") " << obs::hexAddr(rec.addr)
           << " by " << clientName(rec.by) << " words=" << rec.words;
        if (rec.type == MBusOpType::MWrite) {
            os << " data=[";
            for (unsigned i = 0; i < rec.words; ++i)
                os << (i ? " " : "") << obs::hexAddr(rec.data[i]);
            os << "]" << (rec.updatesMemory ? "" : " (no mem update)");
        }
        os << (rec.mshared ? " mshared" : "");
    }
    if (!any)
        os << " none in the last " << replayCount << " recorded";
    return os.str();
}

void
CoherenceChecker::fail(Addr addr, const std::string &what)
{
    const Addr base = lineBaseOf(addr);
    std::ostringstream os;
    os << "coherence violation [" << toString(kind) << "] @"
       << sim.now() << " line " << obs::hexAddr(base) << ": " << what
       << describeLine(base) << replayFor(base);
    const std::string text = os.str();

    if (auto *ts = obs::traceSink()) {
        ts->instant(sim.now(), obs::kCatCheck, "checker", "violation",
                    {{"line", obs::hexAddr(base)}, {"what", what}});
        ts->flush();
    }

    if (cfg.throwOnViolation)
        throw CoherenceViolation(text);
    panic("%s", text.c_str());
}

} // namespace firefly::check
