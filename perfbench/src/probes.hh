/**
 * @file
 * The traced run's probes: forwarding wrappers around the simulator's
 * public extension points that time each call into a layer.
 *
 *  - TimedSource wraps a RefSource (the `cpu` layer's generator: a
 *    SyntheticStream or a Topaz port) and times next() and
 *    onRefCompleted().
 *  - TimedObserver sits between a Cache and the coherence checker
 *    (Cache::setCoherenceObserver) and times the checker's hooks.
 *  - bracketCheckerBus() registers MBus commit and settle observers
 *    around the checker's own, so the checker's bus work is timed.
 *
 * Every wrapper forwards exactly, so a traced machine's statistics
 * equal an untraced one's (perfbench_test checks the digests).
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/coherence_observer.hh"
#include "cpu/ref_source.hh"
#include "mbus/mbus.hh"

namespace perfbench
{

/** Host-time spans recorded by one or more traced runs. */
struct Spans
{
    std::uint64_t genNs = 0;     ///< RefSource::next + onRefCompleted
    std::uint64_t genSteps = 0;  ///< RefSource::next calls
    std::uint64_t genCalls = 0;  ///< all timed generator calls
    std::uint64_t hookNs = 0;    ///< CoherenceObserver hooks
    std::uint64_t hookCalls = 0;
    std::uint64_t hookLoads = 0; ///< loadObserved calls
    std::uint64_t busNs = 0;     ///< checker commit + settle observers
    std::uint64_t busCalls = 0;  ///< bracketed observer calls (2/txn)
    std::uint64_t busTxns = 0;
    std::uint64_t sliceNs = 0;   ///< all Simulator::run slices
    std::vector<double> sliceUs; ///< host us per slice

    void add(const Spans &other);
    /** Calls that each paid for one timed span (for the overhead
     *  correction in Report). */
    std::uint64_t spanCount() const
    {
        return genCalls + hookCalls + busCalls;
    }
};

/** A RefSource that forwards to another and times each call. */
class TimedSource : public firefly::RefSource
{
  public:
    TimedSource(firefly::RefSource &inner, Spans &spans)
        : inner(inner), spans(spans)
    {
    }

    firefly::CpuStep next() override;
    void onRefCompleted(const firefly::MemRef &ref,
                        firefly::Word data) override;
    std::uint64_t instructionsCompleted() const override
    {
        return inner.instructionsCompleted();
    }

  private:
    firefly::RefSource &inner;
    Spans &spans;
};

/** A CoherenceObserver that forwards to another and times each hook. */
class TimedObserver : public firefly::CoherenceObserver
{
  public:
    TimedObserver(firefly::CoherenceObserver &inner, Spans &spans)
        : inner(inner), spans(spans)
    {
    }

    void writeSerialized(firefly::Addr addr, firefly::Word value,
                         const firefly::Cache &by,
                         const char *how) override;
    void loadObserved(firefly::Addr addr, firefly::Word value,
                      const firefly::Cache &by, const char *how) override;
    void onChipInstalled(firefly::Addr line_base,
                         const firefly::OnChipCache &by) override;
    void onChipHit(const firefly::MemRef &ref,
                   const firefly::OnChipCache &by) override;

  private:
    firefly::CoherenceObserver &inner;
    Spans &spans;
};

/**
 * Time the bus observers a checker registers.  Call `attach` with the
 * bus; it registers the opening observers, calls `construct` (which
 * must build the checker, registering its observers), then registers
 * the closing ones.  Observers run in registration order, so each
 * bracket encloses exactly the checker's work.
 */
void bracketCheckerBus(firefly::MBus &bus, Spans &spans,
                       const std::function<void()> &construct);

/** Mean cost of an empty span (two back-to-back clock reads), ns. */
double emptySpanNs();

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
