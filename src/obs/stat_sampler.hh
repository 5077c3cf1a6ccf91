/**
 * @file
 * Periodic stat sampling: time series the end-of-run dump cannot show.
 *
 * The end-of-run StatGroup dump answers "how much, in total" - the
 * paper's Table 2.  The sampler answers "when": registered as a
 * Clocked in Phase::Device, it snapshots selected stats every
 * `period` cycles into an in-memory series, from which CSV (one row
 * per sample, ready for any plotting tool) can be written.
 * Bus-utilisation-vs-time and miss-rate-vs-time plots fall out
 * directly.
 *
 * Channels are either a (StatGroup, stat-name) pair - counters and
 * formulas both work, so "load" and "miss_rate" are one-liners - or
 * an arbitrary std::function<double()>.  Most cumulative counters are
 * more useful as per-interval deltas (bus busy cycles per sample
 * window = utilisation-vs-time); Mode::Delta does that subtraction.
 *
 * Sampling only reads; it cannot perturb simulated behaviour.  Each
 * sample first settles lazily credited counters (Clocked::settle), so
 * a processor asleep in a compute burst reads exactly as if it had
 * ticked every cycle.  The
 * cadence tradeoff: a small period gives fine-grained curves but a
 * sample every period cycles (memory grows linearly); 10k cycles
 * (1 ms simulated) gives 120 points for the standard 0.12 s runs.
 */

#ifndef FIREFLY_OBS_STAT_SAMPLER_HH
#define FIREFLY_OBS_STAT_SAMPLER_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace firefly::obs
{

/** Snapshots selected stats every `period` cycles. */
class StatSampler : public Clocked
{
  public:
    enum class Mode
    {
        Level,  ///< record the stat's current value
        Delta,  ///< record the change since the previous sample
    };

    StatSampler(Simulator &sim, Cycle period);

    /** Sample `group.get(stat)`; label defaults to "group.stat". */
    void addStat(const StatGroup &group, const std::string &stat,
                 Mode mode = Mode::Level, std::string label = {});

    /** Sample an arbitrary probe. */
    void addProbe(std::string label, std::function<double()> fn,
                  Mode mode = Mode::Level);

    void tick(Cycle now) override;

    Cycle period() const { return _period; }
    std::size_t sampleCount() const { return times.size(); }
    std::size_t channelCount() const { return channels.size(); }
    const std::vector<Cycle> &sampleTimes() const { return times; }
    const std::vector<double> &series(std::size_t channel) const;

    /** One row per sample: "cycle,label1,label2,...". */
    void writeCsv(std::ostream &os) const;

  private:
    struct Channel
    {
        std::string label;
        std::function<double()> fn;
        Mode mode;
        double previous = 0.0;
        std::vector<double> values;
    };

    Simulator &sim;
    Cycle _period;
    std::vector<Channel> channels;
    std::vector<Cycle> times;
};

} // namespace firefly::obs

#endif // FIREFLY_OBS_STAT_SAMPLER_HH
