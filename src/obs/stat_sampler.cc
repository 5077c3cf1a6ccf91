#include "obs/stat_sampler.hh"

#include "sim/logging.hh"

namespace firefly::obs
{

StatSampler::StatSampler(Simulator &sim, Cycle period)
    : sim(sim), _period(period)
{
    if (period == 0)
        fatal("StatSampler period must be at least one cycle");
    sim.addClocked(this, Phase::Device);
    // Samples land on period boundaries only.
    setDue((sim.now() + period - 1) / period * period);
}

void
StatSampler::addStat(const StatGroup &group, const std::string &stat,
                     Mode mode, std::string label)
{
    if (!group.has(stat)) {
        fatal("StatSampler: no stat '%s' in group '%s'", stat.c_str(),
              group.name().c_str());
    }
    if (label.empty())
        label = group.name() + "." + stat;
    addProbe(std::move(label),
             [&group, stat] { return group.get(stat); }, mode);
}

void
StatSampler::addProbe(std::string label, std::function<double()> fn,
                      Mode mode)
{
    if (!times.empty())
        fatal("StatSampler: add channels before the simulation runs");
    channels.push_back({std::move(label), std::move(fn), mode, 0.0, {}});
}

void
StatSampler::tick(Cycle now)
{
    if (now % _period != 0)
        return;
    setDue(now + _period);
    sim.settle();
    times.push_back(now);
    for (auto &ch : channels) {
        const double value = ch.fn();
        if (ch.mode == Mode::Delta) {
            ch.values.push_back(value - ch.previous);
            ch.previous = value;
        } else {
            ch.values.push_back(value);
        }
    }
}

const std::vector<double> &
StatSampler::series(std::size_t channel) const
{
    return channels.at(channel).values;
}

void
StatSampler::writeCsv(std::ostream &os) const
{
    os << "cycle";
    for (const auto &ch : channels)
        os << "," << ch.label;
    os << "\n";
    for (std::size_t row = 0; row < times.size(); ++row) {
        os << times[row];
        for (const auto &ch : channels)
            os << "," << statNumber(ch.values[row]);
        os << "\n";
    }
}

} // namespace firefly::obs
