#include "probes.hh"

#include <memory>

#include "clock.hh"

namespace perfbench
{

void
Spans::add(const Spans &other)
{
    genNs += other.genNs;
    genSteps += other.genSteps;
    genCalls += other.genCalls;
    hookNs += other.hookNs;
    hookCalls += other.hookCalls;
    hookLoads += other.hookLoads;
    busNs += other.busNs;
    busCalls += other.busCalls;
    busTxns += other.busTxns;
    sliceNs += other.sliceNs;
    sliceUs.insert(sliceUs.end(), other.sliceUs.begin(),
                   other.sliceUs.end());
}

firefly::CpuStep
TimedSource::next()
{
    const std::uint64_t t0 = spanNs();
    const firefly::CpuStep step = inner.next();
    spans.genNs += spanNs() - t0;
    ++spans.genSteps;
    ++spans.genCalls;
    return step;
}

void
TimedSource::onRefCompleted(const firefly::MemRef &ref, firefly::Word data)
{
    const std::uint64_t t0 = spanNs();
    inner.onRefCompleted(ref, data);
    spans.genNs += spanNs() - t0;
    ++spans.genCalls;
}

void
TimedObserver::writeSerialized(firefly::Addr addr, firefly::Word value,
                               const firefly::Cache &by, const char *how)
{
    const std::uint64_t t0 = spanNs();
    inner.writeSerialized(addr, value, by, how);
    spans.hookNs += spanNs() - t0;
    ++spans.hookCalls;
}

void
TimedObserver::loadObserved(firefly::Addr addr, firefly::Word value,
                            const firefly::Cache &by, const char *how)
{
    const std::uint64_t t0 = spanNs();
    inner.loadObserved(addr, value, by, how);
    spans.hookNs += spanNs() - t0;
    ++spans.hookCalls;
    ++spans.hookLoads;
}

void
TimedObserver::onChipInstalled(firefly::Addr line_base,
                               const firefly::OnChipCache &by)
{
    const std::uint64_t t0 = spanNs();
    inner.onChipInstalled(line_base, by);
    spans.hookNs += spanNs() - t0;
    ++spans.hookCalls;
}

void
TimedObserver::onChipHit(const firefly::MemRef &ref,
                         const firefly::OnChipCache &by)
{
    const std::uint64_t t0 = spanNs();
    inner.onChipHit(ref, by);
    spans.hookNs += spanNs() - t0;
    ++spans.hookCalls;
}

void
bracketCheckerBus(firefly::MBus &bus, Spans &spans,
                  const std::function<void()> &construct)
{
    // Commit and settle of one transaction never overlap, so one
    // opening stamp serves both brackets.
    auto opened = std::make_shared<std::uint64_t>(0);
    const auto open = [opened](const firefly::MBusTransaction &) {
        *opened = spanNs();
    };
    bus.addCommitObserver(open);
    bus.addSettleObserver(open);
    construct();
    bus.addCommitObserver(
        [opened, &spans](const firefly::MBusTransaction &) {
            spans.busNs += spanNs() - *opened;
            ++spans.busCalls;
        });
    bus.addSettleObserver(
        [opened, &spans](const firefly::MBusTransaction &) {
            spans.busNs += spanNs() - *opened;
            ++spans.busCalls;
            ++spans.busTxns;
        });
}

double
emptySpanNs()
{
    constexpr int kReps = 200000;
    std::uint64_t total = 0;
    for (int i = 0; i < kReps; ++i) {
        const std::uint64_t t0 = spanNs();
        total += spanNs() - t0;
    }
    return static_cast<double>(total) / kReps;
}

} // namespace perfbench
