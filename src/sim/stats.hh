/**
 * @file
 * Statistics framework.
 *
 * This plays the role of the hardware counter box the Firefly paper
 * used for Table 2: every component registers named counters in a
 * StatGroup; groups nest, and the whole tree can be dumped as an
 * aligned table or queried programmatically by the benchmark
 * harnesses.
 */

#ifndef FIREFLY_SIM_STATS_HH
#define FIREFLY_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace firefly
{

class StatGroup;

/**
 * Render a stat value for machine-readable output: shortest
 * round-trip decimal form ("0.25", not "0.250000000000000001"), so
 * identical runs serialise byte-identically and parsers recover the
 * exact double.  Non-finite values render as null.
 */
std::string statNumber(double value);

/** A single monotonically accumulating counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { _value += 1; return *this; }
    Counter &operator+=(std::uint64_t n) { _value += n; return *this; }

    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0;
};

/** Running mean / min / max / count of a sampled quantity. */
class Accumulator
{
  public:
    void sample(double v);

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/** Fixed-bucket histogram over [0, bucketCount * bucketWidth). */
class Histogram
{
  public:
    Histogram(unsigned bucket_count = 16, double bucket_width = 1.0);

    void sample(double v);

    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    std::uint64_t bucket(unsigned i) const { return buckets.at(i); }
    unsigned bucketCount() const { return buckets.size(); }
    double bucketWidth() const { return width; }
    /** Samples at or above the top bucket boundary. */
    std::uint64_t overflow() const { return _overflow; }

  private:
    std::vector<std::uint64_t> buckets;
    double width;
    std::uint64_t _count = 0;
    std::uint64_t _overflow = 0;
    double _sum = 0.0;
};

/**
 * A named collection of statistics.  Components own a StatGroup and
 * register their counters with names and descriptions; registration
 * stores pointers, so the counters themselves stay cheap plain
 * members on the hot path.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);

    /** Register statistics (pointers must outlive the group). */
    void addCounter(Counter *c, std::string name, std::string desc);
    void addAccumulator(Accumulator *a, std::string name,
                        std::string desc);
    void addHistogram(Histogram *h, std::string name, std::string desc);
    /** A derived value computed at dump/query time. */
    void addFormula(std::string name, std::string desc,
                    std::function<double()> fn);
    /** Attach a child group (pointer must outlive this group). */
    void addChild(StatGroup *child);

    const std::string &name() const { return _name; }

    /** Look up any stat (counter or formula) by name as a double. */
    double get(const std::string &stat_name) const;

    /**
     * Dump this group and children as one JSON object: counters,
     * accumulator count/mean/min/max, histogram buckets, formula
     * values, and a "children" array, one per child group.
     * Deterministic: identical runs produce byte-identical
     * output (there is a regression test).
     */
    void dumpJson(std::ostream &os, int indent = 0) const;

  private:
    struct NamedCounter { Counter *stat; std::string name, desc; };
    struct NamedAccum { Accumulator *stat; std::string name, desc; };
    struct NamedHist { Histogram *stat; std::string name, desc; };
    struct NamedFormula
    {
        std::function<double()> fn;
        std::string name, desc;
    };

    std::string _name;
    std::vector<NamedCounter> counters;
    std::vector<NamedAccum> accums;
    std::vector<NamedHist> hists;
    std::vector<NamedFormula> formulas;
    std::vector<StatGroup *> children;
};

} // namespace firefly

#endif // FIREFLY_SIM_STATS_HH
