/**
 * @file
 * Host clocks for the benchmark.
 *
 * threadCpuSeconds() is the simulating thread's own CPU time: the
 * simulator is single-threaded, so it is the cost of a run, and it
 * does not grow when a shared host preempts the process.  spanNs() is
 * the cheap monotonic wall clock used for the many short spans of a
 * traced run, where a system call per span would swamp the spans.
 */

#ifndef PERFBENCH_CLOCK_HH
#define PERFBENCH_CLOCK_HH

#include <chrono>
#include <cstdint>
#include <ctime>

namespace perfbench
{

inline double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

inline double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline std::uint64_t
spanNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Keep a computed value alive so the timed work is not folded away. */
template <typename T>
inline void
keep(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

} // namespace perfbench

#endif // PERFBENCH_CLOCK_HH
