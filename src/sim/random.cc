#include "sim/random.hh"

#include "sim/logging.hh"

namespace firefly
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::below called with zero bound");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::range with lo > hi");
    // All arithmetic in uint64 space: hi - lo as int64 may overflow
    // (UB) for spans wider than INT64_MAX, and for those spans the
    // drawn offset does not fit in int64 either.  Two's-complement
    // wraparound on the unsigned add yields the right value.
    const std::uint64_t width = static_cast<std::uint64_t>(hi) -
                                static_cast<std::uint64_t>(lo);
    // The full 64-bit span: width + 1 wraps to 0, and every 64-bit
    // value is in range anyway, so draw directly.
    const std::uint64_t offset =
        width == UINT64_MAX ? next() : below(width + 1);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     offset);
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

} // namespace firefly
