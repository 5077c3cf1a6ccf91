/**
 * @file
 * Parallel sweep driver: run independent simulations concurrently.
 *
 * Every design-space experiment in bench/ is a loop over independent
 * configurations - protocol x NP x sharing fraction, line sizes,
 * scheduler policies - each point building and running its own
 * FireflySystem.  runSweep() runs those points on plain threads that
 * claim point indices from one atomic counter, and returns the
 * results *in input order*, whatever order the threads ran them in.
 *
 * The determinism contract: a sweep's results depend only on each
 * point's configuration, never on execution order or the number of
 * workers.  The simulator holds up its end (per-instance state,
 * thread_local observability, config-seeded Rngs); callers hold up
 * theirs by deriving every random seed from the point's own
 * configuration - pointSeed() below mixes a base seed with per-point
 * salts so no Rng is ever threaded *across* points.  jobs <= 1 runs
 * the plain serial loop on the calling thread, byte-identical to the
 * pre-harness behaviour.
 *
 * Exceptions thrown by a point's callback are captured on its thread
 * and rethrown on the calling thread after every thread has joined,
 * lowest point index first (again: independent of scheduling).
 */

#ifndef FIREFLY_HARNESS_SWEEP_HH
#define FIREFLY_HARNESS_SWEEP_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace firefly::harness
{

/**
 * Derive a sweep point's seed from its configuration.
 *
 * SplitMix64-mixes the base seed with any number of per-point salts
 * (sweep indices, processor counts, a config hash...).  Distinct
 * salts give statistically independent seeds, and the result depends
 * only on the inputs - never on which worker runs the point or when.
 */
inline std::uint64_t
pointSeed(std::uint64_t base)
{
    return base;
}

template <typename... Salts>
std::uint64_t
pointSeed(std::uint64_t base, std::uint64_t salt, Salts... rest)
{
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return pointSeed(z ^ (z >> 31), rest...);
}

/**
 * Run fn(config) over every config on min(jobs, configs) threads,
 * returning the results in input order.  The result type must be
 * default constructible (sweep results are plain aggregates of
 * measurements).
 */
template <typename Config, typename Fn>
auto
runSweep(const std::vector<Config> &configs, Fn fn, unsigned jobs = 1)
    -> std::vector<decltype(fn(configs[0]))>
{
    std::vector<decltype(fn(configs[0]))> results(configs.size());

    if (jobs <= 1 || configs.size() <= 1) {
        for (std::size_t i = 0; i < configs.size(); ++i)
            results[i] = fn(configs[i]);
        return results;
    }

    std::vector<std::exception_ptr> errors(configs.size());
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next++; i < configs.size(); i = next++) {
            try {
                results[i] = fn(configs[i]);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    std::vector<std::thread> threads(
        std::min<std::size_t>(jobs, configs.size()));
    for (auto &thread : threads)
        thread = std::thread(work);
    for (auto &thread : threads)
        thread.join();
    for (auto &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace firefly::harness

#endif // FIREFLY_HARNESS_SWEEP_HH
