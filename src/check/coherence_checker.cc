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
    if (!snapshotsOf(onchip))
        onchipLines.push_back({&onchip, {}});
    onchip.setCoherenceObserver(this);
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
    markDirty(addr, addr);
}

void
CoherenceChecker::loadObserved(Addr addr, Word value, const Cache &by,
                               const char *how)
{
    ++loadsChecked;
    if (value == golden.current(addr))
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
        // (the bug transactionGranted re-drives against) shows up here.
        if (!txn.updatesMemory)
            return;  // squashed: line was invalidated while waiting
        for (unsigned i = 0; i < txn.words; ++i) {
            const Addr a = txn.addr + i * bytesPerWord;
            if (txn.data[i] == golden.current(a))
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
CoherenceChecker::markDirty(Addr first, Addr last_addr)
{
    if (!cfg.fullScanPeriod)
        return;  // no periodic scan would ever drain the set
    const Addr line_bytes = scanner.lineBytes();
    const Addr last = scanner.lineBase(last_addr);
    for (Addr base = scanner.lineBase(first);; base += line_bytes) {
        if (dirtyLines.empty() || dirtyLines.back() != base)
            dirtyLines.push_back(base);
        if (base == last)
            break;
    }
}

std::optional<Addr>
CoherenceChecker::scanDirtyLines(std::vector<std::string> &violations)
{
    // Ascending order, so the report matches what a full scan would
    // say about these lines, in the same order.
    std::sort(dirtyLines.begin(), dirtyLines.end());
    dirtyLines.erase(std::unique(dirtyLines.begin(), dirtyLines.end()),
                     dirtyLines.end());
    nLineChecks += dirtyLines.size();
    const std::optional<Addr> failed =
        scanner.checkLines(dirtyLines, golden, violations);
    if (failed)
        return failed;

    // Every check is a function of cache states, cached data, memory
    // and the oracle, which only change through the dirty-line feeds,
    // so a line that passed waits for a feed to mark it again.
    dirtyLines.clear();
    return std::nullopt;
}

void
CoherenceChecker::busSettled(const MBusTransaction &txn)
{
    ++txnsObserved;
    std::vector<std::string> violations;
    scanner.checkLine(txn.addr, golden, violations);
    ++lineScans;
    ++nLineChecks;

    // Fills, snoop transitions, victim write-backs, DMA and every
    // memory write (memory only changes through the bus) all land on
    // the lines the transaction spans; the periodic scan re-checks
    // them.  The first line was just checked: if it passed, its
    // verdict is fixed until a feed marks it again (as scanDirtyLines
    // argues), so it is queued only if it failed.
    const Addr first = scanner.lineBase(txn.addr);
    const Addr last_word =
        txn.addr + (std::max(txn.words, 1u) - 1) * bytesPerWord;
    if (!violations.empty())
        markDirty(first, first);
    if (scanner.lineBase(last_word) != first)
        markDirty(first + scanner.lineBytes(), last_word);

    // A violation the periodic scan finds is reported under its own
    // line, not the one this transaction happened to settle.
    Addr failed = txn.addr;
    if (violations.empty() && cfg.fullScanPeriod &&
        txnsObserved.value() % cfg.fullScanPeriod == 0) {
        failed = scanDirtyLines(violations).value_or(txn.addr);
        ++fullScans;
    }

    if (!violations.empty()) {
        std::ostringstream os;
        os << "after " << toString(txn.type) << " ("
           << toString(txn.kind) << ") " << obs::hexAddr(txn.addr)
           << " by " << clientName(txn.initiator);
        for (const std::string &v : violations)
            os << "\n  " << v;
        fail(failed, os.str());
    }
}

void
CoherenceChecker::finalCheck()
{
    std::vector<std::string> violations;
    const std::optional<Addr> failed = scanner.fullScan(golden, violations);
    ++fullScans;
    if (failed) {
        std::ostringstream os;
        os << "final scan";
        for (const std::string &v : violations)
            os << "\n  " << v;
        fail(*failed, os.str());
    }
}

// --- on-chip cache snapshots ---------------------------------------------

CoherenceChecker::OnChipSnapshots *
CoherenceChecker::snapshotsOf(const OnChipCache &by)
{
    for (OnChipSnapshots &snapshots : onchipLines) {
        if (snapshots.cache == &by)
            return &snapshots;
    }
    return nullptr;
}

void
CoherenceChecker::onChipInstalled(Addr line_base, const OnChipCache &by)
{
    OnChipSnapshots *snapshots = snapshotsOf(by);
    if (!snapshots)
        return;
    OnChipSnapshot &line = snapshots->lines[OnChipCache::indexOf(line_base)];
    line.valid = true;
    line.base = line_base;
    for (unsigned i = 0; i < line.words.size(); ++i)
        line.words[i] = golden.current(line_base + i * bytesPerWord);
}

void
CoherenceChecker::onChipHit(const MemRef &ref, const OnChipCache &by)
{
    OnChipSnapshots *snapshots = snapshotsOf(by);
    if (!snapshots)
        return;
    const Addr base = ref.addr - ref.addr % OnChipCache::lineBytes;
    const OnChipSnapshot &line = snapshots->lines[OnChipCache::indexOf(base)];
    if (!line.valid || line.base != base)
        return;  // installed before the checker attached
    ++onChipChecks;
    const Addr word_addr = ref.addr - ref.addr % bytesPerWord;
    const Word held = line.words[(word_addr - base) / bytesPerWord];
    if (held == golden.current(word_addr))
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
    const Addr base = scanner.lineBase(addr);
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
