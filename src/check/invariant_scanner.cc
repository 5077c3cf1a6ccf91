#include "check/invariant_scanner.hh"

#include <algorithm>
#include <array>
#include <span>
#include <sstream>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly::check
{

void
InvariantScanner::addCache(const Cache *cache)
{
    if (caches.size() == maxCaches)
        panic("invariant scanner: more than %zu caches", maxCaches);
    const Addr line_bytes = cache->lineWords() * bytesPerWord;
    if (caches.empty())
        _lineBytes = line_bytes;
    else if (line_bytes != _lineBytes)
        panic("invariant scanner: %s has %u-byte lines, not %u",
              cache->name().c_str(), line_bytes, _lineBytes);
    caches.push_back(cache);
}

std::size_t
InvariantScanner::holdersOf(Addr base, Holders &buf) const
{
    std::size_t n = 0;
    for (const Cache *cache : caches) {
        if (cache->holds(base))
            buf[n++] = {cache, cache->lineAt(base)};
    }
    return n;
}

void
InvariantScanner::checkLine(Addr addr, const GoldenMemory &oracle,
                            std::vector<std::string> &out) const
{
    if (caches.empty())
        return;
    const Addr base = lineBase(addr);
    // Fixed inline storage: a scan runs after every bus transaction,
    // so it must not touch the heap unless it has something to say.
    Holders holder_buf;
    const std::size_t n_holders = holdersOf(base, holder_buf);
    checkHeld(base, {holder_buf.data(), n_holders}, oracle, out);
}

void
InvariantScanner::checkHeld(Addr base, std::span<const Holder> holders,
                            const GoldenMemory &oracle,
                            std::vector<std::string> &out) const
{
    // I1: state legality.
    for (const Holder &h : holders) {
        if (!rules.legal.contains(h.line.state)) {
            std::ostringstream os;
            os << "I1 illegal state: " << h.cache->name() << " holds "
               << obs::hexAddr(base) << " in state "
               << toString(h.line.state) << ", which "
               << rules.name << " never produces";
            out.push_back(os.str());
        }
    }

    // I2: at most one owner (write-back responsibility).
    std::array<const Cache *, maxCaches> owner_buf;
    std::size_t n_owners = 0;
    for (const Holder &h : holders) {
        if (needsWriteback(h.line.state))
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
        if (rules.exclusive.contains(h.line.state) &&
            holders.size() > 1) {
            std::ostringstream os;
            os << "I3 exclusivity: " << h.cache->name() << " holds "
               << obs::hexAddr(base) << " in exclusive state "
               << toString(h.line.state) << " but " << holders.size()
               << " caches hold the line";
            out.push_back(os.str());
        }
    }

    // I4/I5: word-level data checks, one oracle lookup per word.
    const unsigned words = _lineBytes / bytesPerWord;
    for (unsigned w = 0; w < words; ++w) {
        const Addr a = base + w * bytesPerWord;
        const GoldenMemory::WordState word = oracle.word(a);
        if (!holders.empty()) {
            const Word held = holders.front().line.data[w];
            for (const Holder &h : holders.subspan(1)) {
                const Word v = h.line.data[w];
                if (v == held)
                    continue;
                std::ostringstream os;
                os << "I4 copies disagree at " << obs::hexAddr(a)
                   << ": " << holders.front().cache->name() << "="
                   << obs::hexAddr(held) << " vs " << h.cache->name()
                   << "=" << obs::hexAddr(v);
                out.push_back(os.str());
            }
            if (held != word.current) {
                std::ostringstream os;
                os << "I4 cached value at " << obs::hexAddr(a) << " is "
                   << obs::hexAddr(held) << " but the oracle says "
                   << obs::hexAddr(word.current) << " (serialized @"
                   << oracle.writtenAt(a) << ")";
                out.push_back(os.str());
            }
        }
        if (owners.empty() && word.memoryStale) {
            std::ostringstream os;
            os << "I5 no owner for " << obs::hexAddr(a)
               << " yet memory holds " << obs::hexAddr(memory.peek(a))
               << ", oracle " << obs::hexAddr(word.current)
               << " (serialized @" << oracle.writtenAt(a) << ")";
            out.push_back(os.str());
        }
    }
}

std::optional<Addr>
InvariantScanner::checkLines(const std::vector<Addr> &bases,
                             const GoldenMemory &oracle,
                             std::vector<std::string> &out) const
{
    // Tracked words nobody caches: memory must hold the value.  Their
    // reports follow every resident line's, as in a full scan.
    std::vector<std::string> uncached;
    std::optional<Addr> first_held, first_uncached;
    const unsigned words = _lineBytes / bytesPerWord;
    Holders holder_buf;
    for (const Addr base : bases) {
        const std::size_t n_holders = holdersOf(base, holder_buf);
        if (n_holders) {
            const std::size_t reported = out.size();
            checkHeld(base, {holder_buf.data(), n_holders}, oracle, out);
            if (!first_held && out.size() != reported)
                first_held = base;
            continue;
        }
        for (unsigned w = 0; w < words; ++w) {
            const Addr a = base + w * bytesPerWord;
            const GoldenMemory::WordState word = oracle.word(a);
            if (!word.memoryStale)
                continue;
            std::ostringstream os;
            os << "I5 uncached word " << obs::hexAddr(a)
               << ": memory holds " << obs::hexAddr(memory.peek(a))
               << ", oracle " << obs::hexAddr(word.current)
               << " (serialized @" << oracle.writtenAt(a) << ")";
            uncached.push_back(os.str());
            if (!first_uncached)
                first_uncached = base;
        }
    }
    out.insert(out.end(), uncached.begin(), uncached.end());
    return first_held ? first_held : first_uncached;
}

std::optional<Addr>
InvariantScanner::fullScan(const GoldenMemory &oracle,
                           std::vector<std::string> &out) const
{
    std::vector<Addr> bases;
    for (const Cache *cache : caches) {
        for (std::size_t i = 0; i < cache->numLines(); ++i) {
            const Cache::LineView line = cache->line(i);
            if (line.valid())
                bases.push_back(line.base);
        }
    }
    oracle.forEachTracked(
        [&](Addr addr) { bases.push_back(lineBase(addr)); });
    std::sort(bases.begin(), bases.end());
    bases.erase(std::unique(bases.begin(), bases.end()), bases.end());
    return checkLines(bases, oracle, out);
}

} // namespace firefly::check
