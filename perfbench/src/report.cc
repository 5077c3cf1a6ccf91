#include "report.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace perfbench
{

namespace
{

constexpr Scope E = Scope::EndToEnd;
constexpr Scope L = Scope::PerLayer;

const std::vector<MetricSpec> kMetrics = {
    // End to end, measured with tracing off.
    {"sim_mcycles_per_s", "Mcycles/s", E},
    {"setup_s", "s", E},
    {"host_rss_mib", "MiB", E},
    {"model_error_pct", "%", E},
    // Per layer, from the traced invocation.
    {"fail_pct", "%", L},
    {"sim.ff_skip_frac", "fraction", L},
    {"sim.event_ns", "ns", L},
    {"sim.slice_us_p50", "us", L},
    {"sim.slice_us_p99", "us", L},
    {"sim.slice_samples", "count", L},
    {"sim.engine_share", "fraction", L},
    {"sim.host_cpu_util", "fraction", L},
    {"mbus.load", "fraction", L},
    {"mbus.txn_per_kcycle", "1/kcycle", L},
    {"mbus.mshared_frac", "fraction", L},
    {"mbus.arb_wait_mean", "cycles", L},
    {"mbus.dma_frac", "fraction", L},
    {"mbus.txn_ns", "ns", L},
    {"cache.hit_rate", "fraction", L},
    {"cache.read_hit_ns", "ns", L},
    {"cache.snoop_probe_ns", "ns", L},
    {"cache.tag_retry_per_kref", "1/kref", L},
    {"cache.bus_ops_per_kref", "1/kref", L},
    {"cpu.refs_per_kcycle", "1/kcycle", L},
    {"cpu.stall_frac", "fraction", L},
    {"cpu.tpi", "ticks/instr", L},
    {"cpu.gen_ns_per_step", "ns", L},
    {"cpu.gen_share", "fraction", L},
    {"cpu.synthetic_next_ns", "ns", L},
    {"mem.ops_per_kcycle", "1/kcycle", L},
    {"mem.read_ns", "ns", L},
    {"mem.write_ns", "ns", L},
    {"check.loads_per_kcycle", "1/kcycle", L},
    {"check.full_scans", "count", L},
    {"check.hook_ns_per_load", "ns", L},
    {"check.bus_ns_per_txn", "ns", L},
    {"check.share", "fraction", L},
    {"check.final_scan_ms", "ms", L},
    {"topaz.switches_per_kinstr", "1/kinstr", L},
    {"topaz.kernel_frac", "fraction", L},
    {"io.dma_words_per_kcycle", "1/kcycle", L},
    {"trace.overhead_frac", "fraction", L},
};

} // namespace

const std::vector<MetricSpec> &
metricSpecs()
{
    return kMetrics;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !std::isalnum(
            static_cast<unsigned char>(name.front()))) {
        return false;
    }
    return std::all_of(name.begin(), name.end(), [](unsigned char c) {
        return std::isalnum(c) || c == '_' || c == '.' || c == '-';
    });
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * (values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

double
spread(const std::vector<double> &values)
{
    const double mid = median(values);
    const std::size_t n = values.size();
    if (n < 2 || mid == 0.0)
        return 0.0;
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    // Python's statistics.quantiles(v, n=4), method "exclusive".
    const auto quartile = [&](std::size_t i) {
        const std::size_t j = std::clamp<std::size_t>(i * (n + 1) / 4, 1,
                                                      n - 1);
        const double delta = static_cast<double>(i * (n + 1)) - 4.0 * j;
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    return (quartile(3) - quartile(1)) / mid;
}

std::string
resultLine(Scope scope, std::uint64_t attempted, std::uint64_t failed,
           const std::map<std::string, double> &values)
{
    std::string metrics;
    std::size_t used = 0;
    for (const MetricSpec &m : kMetrics) {
        if (m.scope != scope)
            continue;
        const auto it = values.find(m.name);
        if (it == values.end())
            firefly::panic("metric %s was not measured", m.name);
        if (!std::isfinite(it->second))
            firefly::panic("metric %s is not finite", m.name);
        ++used;
        metrics += metrics.empty() ? "" : ", ";
        metrics += std::string("\"") + m.name + "\": {\"value\": " +
                   firefly::statNumber(it->second) + ", \"unit\": \"" +
                   m.unit + "\"}";
    }
    if (used != values.size())
        firefly::panic("a measured metric is not in the metric table");
    return std::string("{\"correct\": ") +
           (failed == 0 ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": {" + metrics + "}}";
}

} // namespace perfbench
