/**
 * @file
 * The benchmark's metric table, statistics helpers and result line.
 *
 * Every metric the benchmark can print is declared once here, with its
 * unit and whether it is an end-to-end metric (printed with --trace 0)
 * or a per-layer one (printed with --trace 1).  BENCHMARK.json lists the
 * same names; perfbench/test_run.py checks that the two agree.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

enum class Scope
{
    EndToEnd,
    PerLayer,
};

struct MetricSpec
{
    const char *name;
    const char *unit;
    Scope scope;
};

const std::vector<MetricSpec> &metricSpecs();

/** Names are [A-Za-z0-9_.-]+, starting with a letter or digit. */
bool validMetricName(const std::string &name);

double median(std::vector<double> values);
/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> values, double q);
/** Inter-quartile range over the median, the quartiles taken as
 *  Python's statistics.quantiles(values, n=4) takes them (0 for fewer
 *  than 2 values). */
double spread(const std::vector<double> &values);

/**
 * The result line: one JSON object with `correct`, `attempted`,
 * `failed` and every metric of `scope` with its unit.  Dies if a metric
 * of the scope is missing or `values` names one outside it.
 */
std::string resultLine(Scope scope, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::map<std::string, double> &values);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
