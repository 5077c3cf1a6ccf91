#include "sim/stats.hh"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace firefly
{

std::string
statNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

void
Accumulator::sample(double v)
{
    if (_count == 0) {
        _min = _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    ++_count;
    _sum += v;
}

Histogram::Histogram(unsigned bucket_count, double bucket_width)
    : buckets(bucket_count, 0), width(bucket_width)
{
    if (bucket_count == 0 || bucket_width <= 0.0)
        panic("Histogram needs positive bucket count and width");
}

void
Histogram::sample(double v)
{
    ++_count;
    _sum += v;
    if (v < 0.0)
        v = 0.0;
    const auto idx = static_cast<std::size_t>(v / width);
    if (idx >= buckets.size())
        ++_overflow;
    else
        ++buckets[idx];
}

StatGroup::StatGroup(std::string name)
    : _name(std::move(name))
{
}

void
StatGroup::addCounter(Counter *c, std::string name, std::string desc)
{
    counters.push_back({c, std::move(name), std::move(desc)});
}

void
StatGroup::addAccumulator(Accumulator *a, std::string name,
                          std::string desc)
{
    accums.push_back({a, std::move(name), std::move(desc)});
}

void
StatGroup::addHistogram(Histogram *h, std::string name, std::string desc)
{
    hists.push_back({h, std::move(name), std::move(desc)});
}

void
StatGroup::addFormula(std::string name, std::string desc,
                      std::function<double()> fn)
{
    formulas.push_back({std::move(fn), std::move(name), std::move(desc)});
}

void
StatGroup::addChild(StatGroup *child)
{
    children.push_back(child);
}

double
StatGroup::get(const std::string &stat_name) const
{
    for (const auto &c : counters) {
        if (c.name == stat_name)
            return static_cast<double>(c.stat->value());
    }
    for (const auto &a : accums) {
        if (a.name == stat_name)
            return a.stat->mean();
    }
    for (const auto &f : formulas) {
        if (f.name == stat_name)
            return f.fn();
    }
    panic("unknown stat '%s' in group '%s'", stat_name.c_str(),
          _name.c_str());
}

namespace
{

// Hostile names (control characters included) must still produce
// valid JSON; the shared escaper handles what the old local one
// missed.
std::string
jsonString(const std::string &s)
{
    return jsonQuote(s);
}

} // namespace

void
StatGroup::dumpJson(std::ostream &os, int indent) const
{
    const std::string pad(indent * 2, ' ');
    const std::string in(indent * 2 + 2, ' ');
    os << "{\n" << in << "\"name\": " << jsonString(_name);

    if (!counters.empty()) {
        os << ",\n" << in << "\"counters\": {";
        for (std::size_t i = 0; i < counters.size(); ++i) {
            os << (i ? ", " : "") << jsonString(counters[i].name)
               << ": " << counters[i].stat->value();
        }
        os << "}";
    }
    if (!accums.empty()) {
        os << ",\n" << in << "\"accumulators\": {";
        for (std::size_t i = 0; i < accums.size(); ++i) {
            const Accumulator &a = *accums[i].stat;
            os << (i ? ", " : "") << jsonString(accums[i].name)
               << ": {\"count\": " << a.count()
               << ", \"sum\": " << statNumber(a.sum())
               << ", \"mean\": " << statNumber(a.mean())
               << ", \"min\": " << statNumber(a.min())
               << ", \"max\": " << statNumber(a.max()) << "}";
        }
        os << "}";
    }
    if (!hists.empty()) {
        os << ",\n" << in << "\"histograms\": {";
        for (std::size_t i = 0; i < hists.size(); ++i) {
            const Histogram &h = *hists[i].stat;
            os << (i ? ", " : "") << jsonString(hists[i].name)
               << ": {\"bucket_width\": " << statNumber(h.bucketWidth())
               << ", \"count\": " << h.count()
               << ", \"mean\": " << statNumber(h.mean())
               << ", \"overflow\": " << h.overflow()
               << ", \"buckets\": [";
            for (unsigned b = 0; b < h.bucketCount(); ++b)
                os << (b ? ", " : "") << h.bucket(b);
            os << "]}";
        }
        os << "}";
    }
    if (!formulas.empty()) {
        os << ",\n" << in << "\"formulas\": {";
        for (std::size_t i = 0; i < formulas.size(); ++i) {
            os << (i ? ", " : "") << jsonString(formulas[i].name)
               << ": " << statNumber(formulas[i].fn());
        }
        os << "}";
    }
    if (!children.empty()) {
        os << ",\n" << in << "\"children\": [";
        for (std::size_t i = 0; i < children.size(); ++i) {
            os << (i ? ", " : "");
            children[i]->dumpJson(os, indent + 1);
        }
        os << "]";
    }
    os << "\n" << pad << "}";
    if (indent == 0)
        os << "\n";
}

} // namespace firefly
