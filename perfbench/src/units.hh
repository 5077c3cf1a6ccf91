/**
 * @file
 * Unit-cost microbenchmarks: one public function of one layer, timed
 * in isolation on a small rig built from public constructors.  Each
 * warms up, then times batches of calls on the thread CPU clock and
 * reports the median cost per call over the batches.
 */

#ifndef PERFBENCH_UNITS_HH
#define PERFBENCH_UNITS_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench
{

/**
 * Run every unit microbenchmark, sharing about `seconds` of host CPU
 * time between them, with inputs drawn from `seed`.
 * @return metric name -> ns per call (ms for check.final_scan_ms).
 */
std::map<std::string, double> runUnits(std::uint64_t seed,
                                       double seconds);

} // namespace perfbench

#endif // PERFBENCH_UNITS_HH
