/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (synthetic reference
 * streams, workload think times, ...) draws from Rng instances seeded
 * from the configuration, so a run is exactly reproducible from its
 * seed.  The generator is xoshiro256** which is fast, high quality,
 * and trivially portable.
 */

#ifndef FIREFLY_SIM_RANDOM_HH
#define FIREFLY_SIM_RANDOM_HH

#include <cstdint>

namespace firefly
{

/** Deterministic random number generator (xoshiro256**). */
class Rng
{
  public:
    /** Seed via SplitMix64 so any 64-bit seed gives a good state. */
    explicit Rng(std::uint64_t seed = 0x5eedf1ef1ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound), bound > 0, without modulo bias. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /**
     * Bernoulli trial with probability p of returning true.  Draws
     * nothing for p <= 0 (false) or p >= 1 (true).  Otherwise exactly
     * `uniform() < p`, in integers: uniform() is x * 2^-53 for the
     * 53-bit draw x, and scaling p by 2^53 is exact, so the test is
     * x < ceil(p * 2^53).
     */
    bool chance(double p) { return chanceScaled(chanceThreshold(p)); }

    /** chance(p)'s threshold, for callers that draw with the same p
     *  many times: 0 for p <= 0 (and NaN), 2^53 for p >= 1. */
    static std::uint64_t
    chanceThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return kChanceOne;
        // p * 2^53 is exact and below 2^53, so its integer part and
        // the ceiling convert exactly; p > 0 makes the ceiling >= 1.
        const double scaled = p * 0x1.0p53;
        auto threshold = static_cast<std::uint64_t>(scaled);
        if (static_cast<double>(threshold) < scaled)
            ++threshold;
        return threshold;
    }

    /** chance() with a threshold from chanceThreshold(). */
    bool
    chanceScaled(std::uint64_t threshold)
    {
        if (threshold == 0)
            return false;
        if (threshold >= kChanceOne)
            return true;
        return (next() >> 11) < threshold;
    }

    /** Geometrically distributed count >= 1 with mean 1/p. */
    std::uint64_t geometric(double p);

  private:
    static constexpr std::uint64_t kChanceOne = std::uint64_t{1} << 53;

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

} // namespace firefly

#endif // FIREFLY_SIM_RANDOM_HH
