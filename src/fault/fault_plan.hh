/**
 * @file
 * Deterministic fault scheduling.
 *
 * A FaultPlan decides, at every potential fault site, whether a fault
 * fires there.  Like the fuzzer's reference stream (check/fuzz.hh),
 * the plan is a pure function of (seed, rates): the n-th decision of
 * a given fault stream hashes (seed ^ stream ^ n) through SplitMix64
 * and compares the resulting uniform deviate against the configured
 * rate.  Because the simulation itself is deterministic, the n-th
 * bus transaction / memory read / device request of a run is always
 * the same one, so a fault campaign replays exactly from its seed -
 * no RNG state threads through the simulator, and streams cannot
 * perturb each other no matter how components interleave.
 */

#ifndef FIREFLY_FAULT_FAULT_PLAN_HH
#define FIREFLY_FAULT_FAULT_PLAN_HH

#include <cstdint>

namespace firefly::fault
{

/** Per-site fault probabilities (0.0 disables a stream). */
struct FaultRates
{
    /** P(parity error) per bus transaction attempt, drawn as the
     *  transaction enters its data cycle.  Retries draw again. */
    double busParity = 0.0;
    /** P(correctable single-bit flip) per timed memory-module read. */
    double eccSingle = 0.0;
    /** P(uncorrectable double-bit error) per timed module read. */
    double eccDouble = 0.0;
    /** P(request-level hang) per DMA request issued to the engine. */
    double deviceTimeout = 0.0;

    bool
    any() const
    {
        return busParity > 0.0 || eccSingle > 0.0 || eccDouble > 0.0 ||
               deviceTimeout > 0.0;
    }
};

/** Counter-hash fault schedule: pure function of seed + rates. */
class FaultPlan
{
  public:
    FaultPlan(std::uint64_t seed, const FaultRates &rates)
        : seed(seed), rates(rates)
    {
    }

    /** One draw per bus transaction attempt. */
    bool
    busParityError()
    {
        return draw(kStreamParity, parityCount++) < rates.busParity;
    }

    enum class EccOutcome : std::uint8_t
    {
        Ok,
        Corrected,      ///< single-bit flip, corrected and scrubbed
        Uncorrectable,  ///< double-bit error, machine check
    };

    /** One draw per timed memory-module read. */
    EccOutcome
    eccOnRead()
    {
        const double u = draw(kStreamEcc, eccCount++);
        // Double-bit errors claim the bottom of the deviate range so
        // raising eccSingle never converts scheduled uncorrectables
        // into correctables.
        if (u < rates.eccDouble)
            return EccOutcome::Uncorrectable;
        if (u < rates.eccDouble + rates.eccSingle)
            return EccOutcome::Corrected;
        return EccOutcome::Ok;
    }

    /** One draw per DMA request handed to the engine. */
    bool
    deviceTimeout()
    {
        return draw(kStreamDevice, deviceCount++) < rates.deviceTimeout;
    }

  private:
    static constexpr std::uint64_t kStreamParity = 0x9d2c'5681'0000'0001ULL;
    static constexpr std::uint64_t kStreamEcc = 0x9d2c'5681'0000'0002ULL;
    static constexpr std::uint64_t kStreamDevice = 0x9d2c'5681'0000'0003ULL;

    static std::uint64_t
    splitMix64(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    /** Uniform deviate in [0, 1) for decision `n` of `stream`. */
    double
    draw(std::uint64_t stream, std::uint64_t n) const
    {
        const std::uint64_t h = splitMix64(seed ^ stream ^ (n * 0x2545f4914f6cdd1dULL));
        return static_cast<double>(h >> 11) * 0x1.0p-53;
    }

    std::uint64_t seed;
    FaultRates rates;
    std::uint64_t parityCount = 0;
    std::uint64_t eccCount = 0;
    std::uint64_t deviceCount = 0;
};

} // namespace firefly::fault

#endif // FIREFLY_FAULT_FAULT_PLAN_HH
