#include "check/invariant_scanner.hh"

#include <algorithm>
#include <array>
#include <span>
#include <sstream>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly::check
{

namespace
{

/** States the protocol can legally leave a line in. */
bool
legal(ProtocolKind kind, LineState state)
{
    switch (kind) {
      case ProtocolKind::Firefly:
      case ProtocolKind::Mesi:
        return state == LineState::Valid || state == LineState::Dirty ||
               state == LineState::Shared;
      case ProtocolKind::Dragon:
        return state != LineState::Invalid;
      case ProtocolKind::WriteThroughInvalidate:
        return state == LineState::Valid;
      case ProtocolKind::Berkeley:
        return state == LineState::Dirty ||
               state == LineState::Shared ||
               state == LineState::SharedDirty;
    }
    return false;
}

/** States that assert "no other cache holds this line". */
bool
exclusive(ProtocolKind kind, LineState state)
{
    switch (kind) {
      case ProtocolKind::WriteThroughInvalidate:
        // WTI's only state is Valid and it is freely shared.
        return false;
      case ProtocolKind::Berkeley:
        // Berkeley has no exclusive-clean state; only Dirty claims
        // sole residency.
        return state == LineState::Dirty;
      default:
        return state == LineState::Valid || state == LineState::Dirty;
    }
}

} // namespace

bool
InvariantScanner::stateLegal(LineState state) const
{
    return legal(kind, state);
}

void
InvariantScanner::addCache(const Cache *cache)
{
    if (caches.size() == maxCaches)
        panic("invariant scanner: more than %zu caches", maxCaches);
    caches.push_back(cache);
}

Addr
InvariantScanner::lineBytes() const
{
    return caches.empty() ? bytesPerWord
                          : caches.front()->lineWords() * bytesPerWord;
}

bool
InvariantScanner::resident(Addr line_base) const
{
    return std::any_of(caches.begin(), caches.end(),
                       [&](const Cache *c) { return c->holds(line_base); });
}

void
InvariantScanner::checkLine(Addr addr, const GoldenMemory &oracle,
                            Cycle now, std::vector<std::string> &out) const
{
    if (caches.empty())
        return;
    const unsigned words = caches.front()->lineWords();
    const Addr base = addr - addr % lineBytes();

    // Fixed inline storage: a scan runs after every bus transaction,
    // so it must not touch the heap unless it has something to say.
    std::array<Holder, maxCaches> holder_buf;
    std::size_t n_holders = 0;
    for (const Cache *cache : caches) {
        if (cache->holds(base))
            holder_buf[n_holders++] = {cache, &cache->lineAt(base)};
    }
    const std::span<const Holder> holders(holder_buf.data(), n_holders);

    // I1: state legality.
    for (const Holder &h : holders) {
        if (!stateLegal(h.line->state)) {
            std::ostringstream os;
            os << "I1 illegal state: " << h.cache->name() << " holds "
               << obs::hexAddr(base) << " in state "
               << toString(h.line->state) << ", which "
               << toString(kind) << " never produces";
            out.push_back(os.str());
        }
    }

    // I2: at most one owner (write-back responsibility).
    std::array<const Cache *, maxCaches> owner_buf;
    std::size_t n_owners = 0;
    for (const Holder &h : holders) {
        if (needsWriteback(h.line->state))
            owner_buf[n_owners++] = h.cache;
    }
    const std::span<const Cache *const> owners(owner_buf.data(), n_owners);
    if (owners.size() > 1) {
        std::ostringstream os;
        os << "I2 multiple owners of " << obs::hexAddr(base) << ":";
        for (const Cache *cache : owners)
            os << " " << cache->name();
        out.push_back(os.str());
    }

    // I3: exclusive states really are exclusive (MShared agreed).
    for (const Holder &h : holders) {
        if (exclusive(kind, h.line->state) && holders.size() > 1) {
            std::ostringstream os;
            os << "I3 exclusivity: " << h.cache->name() << " holds "
               << obs::hexAddr(base) << " in exclusive state "
               << toString(h.line->state) << " but " << holders.size()
               << " caches hold the line";
            out.push_back(os.str());
        }
    }

    // I4/I5: word-level data checks.
    for (unsigned w = 0; w < words; ++w) {
        const Addr a = base + w * bytesPerWord;
        bool have = false;
        Word held = 0;
        for (const Holder &h : holders) {
            const Word v = h.line->data[w];
            if (!have) {
                have = true;
                held = v;
            } else if (v != held) {
                std::ostringstream os;
                os << "I4 copies disagree at " << obs::hexAddr(a)
                   << ": " << holders.front().cache->name() << "="
                   << obs::hexAddr(held) << " vs " << h.cache->name()
                   << "=" << obs::hexAddr(v);
                out.push_back(os.str());
            }
        }
        if (have && !oracle.admissible(now, a, held)) {
            std::ostringstream os;
            os << "I4 cached value at " << obs::hexAddr(a) << " is "
               << obs::hexAddr(held) << " but the oracle says "
               << obs::hexAddr(oracle.current(a))
               << " (serialized @" << oracle.writtenAt(a) << ")";
            out.push_back(os.str());
        }
        if (owners.empty() && oracle.memoryStale(a)) {
            std::ostringstream os;
            os << "I5 no owner for " << obs::hexAddr(a)
               << " yet memory holds " << obs::hexAddr(memory.peek(a))
               << ", oracle " << obs::hexAddr(oracle.current(a))
               << " (serialized @" << oracle.writtenAt(a) << ")";
            out.push_back(os.str());
        }
    }
}

void
InvariantScanner::checkLines(const std::vector<Addr> &bases,
                             const GoldenMemory &oracle, Cycle now,
                             std::vector<std::string> &out) const
{
    // Tracked words nobody caches: memory must hold the value.  Their
    // reports follow every resident line's, as in a full scan.
    std::vector<std::string> uncached;
    const unsigned words = lineBytes() / bytesPerWord;
    for (const Addr base : bases) {
        if (resident(base)) {
            checkLine(base, oracle, now, out);
            continue;
        }
        for (unsigned w = 0; w < words; ++w) {
            const Addr a = base + w * bytesPerWord;
            if (!oracle.memoryStale(a))
                continue;
            std::ostringstream os;
            os << "I5 uncached word " << obs::hexAddr(a)
               << ": memory holds " << obs::hexAddr(memory.peek(a))
               << ", oracle " << obs::hexAddr(oracle.current(a))
               << " (serialized @" << oracle.writtenAt(a) << ")";
            uncached.push_back(os.str());
        }
    }
    out.insert(out.end(), uncached.begin(), uncached.end());
}

void
InvariantScanner::fullScan(const GoldenMemory &oracle, Cycle now,
                           std::vector<std::string> &out) const
{
    std::vector<Addr> bases;
    for (const Cache *cache : caches) {
        for (const CacheLine &line : cache->allLines()) {
            if (line.valid())
                bases.push_back(line.base);
        }
    }
    const Addr line_bytes = lineBytes();
    oracle.forEachTracked(
        [&](Addr addr) { bases.push_back(addr - addr % line_bytes); });
    std::sort(bases.begin(), bases.end());
    bases.erase(std::unique(bases.begin(), bases.end()), bases.end());
    checkLines(bases, oracle, now, out);
}

} // namespace firefly::check
