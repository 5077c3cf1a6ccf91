#include "workloads.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "analytic/queueing_model.hh"
#include "clock.hh"
#include "sim/logging.hh"
#include "topaz/workloads.hh"

namespace perfbench
{

using namespace firefly;

namespace
{

// Simulated spans of the fixed-span workloads.  Each run costs a few
// hundred host milliseconds, so a timed window holds many runs.  The
// checker makes checked7 ~6x dearer per cycle at this span (and ~50x
// at saturated7's), so it runs a tenth of the cycles.
constexpr Cycle kSaturatedCycles = 1'000'000;  // 0.1 s
constexpr Cycle kCheckedCycles = 100'000;      // 10 ms
constexpr Cycle kDmaIdleCycles = 10'000'000;   // 1 s

// threads5: the Table 2 five-CPU column.
constexpr unsigned kThreads5Cpus = 5;
constexpr unsigned kExerciserThreads = 16;
constexpr std::uint64_t kExerciserIterations = 400;
constexpr Cycle kThreadsMaxCycles = 20'000'000;  // 2 s, as Table 2

// dma-idle: the CPUs' burst, then the I/O world.
constexpr std::uint64_t kBurstInstructions = 500;
constexpr Addr kRxRing = 0x0030'0000;  // above the 4-CPU synthetic
                                       // footprint, inside the QBus
                                       // identity window
constexpr unsigned kRxBuffers = 8;
constexpr unsigned kRxBufferBytes = 2048;
constexpr unsigned kPacketBytes = 1500;
constexpr unsigned kDiskSectors = 8;    // 4 KB: two ring buffers
constexpr unsigned kDiskBuffers = 4;
// Writes land in the first 1024 sectors (~8 cylinders), so the disk's
// backing store stays small however long the run.
constexpr unsigned kDiskWindowSectors = 1024;

// No component has reported progress for this long: wedged.
constexpr Cycle kWatchdogCycles = 1'000'000;

// Jobs per workload: enough that model_error_pct, averaged over them,
// varies little from seed to seed.  The short synthetic runs need the
// most (their bus load is still climbing as dirty lines accumulate);
// dma-idle's load barely depends on the seed.
const std::vector<WorkloadSpec> kWorkloads = {
    {WorkloadKind::Saturated7, "saturated7",
     "Section 5.2 queueing model at NP=7 (QueueingModel "
     "rowForProcessors(7).busLoad)",
     16},
    {WorkloadKind::Checked7, "checked7",
     "Section 5.2 queueing model at NP=7 (QueueingModel "
     "rowForProcessors(7).busLoad)",
     16},
    {WorkloadKind::Threads5, "threads5",
     "Table 2, five-CPU column, actual bus load L = 0.54", 6},
    {WorkloadKind::DmaIdle, "dma-idle",
     "Section 5: a fully loaded QBus consumes about 30% of the main "
     "memory bandwidth, L = 0.30",
     4},
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    return kWorkloads;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : kWorkloads) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

std::uint64_t
jobSeed(const WorkloadSpec &spec, std::uint64_t seed, std::size_t run)
{
    return seed * spec.jobs + run % spec.jobs;
}

double
referenceLoad(const WorkloadSpec &spec)
{
    switch (spec.kind) {
      case WorkloadKind::Saturated7:
      case WorkloadKind::Checked7:
        return QueueingModel{}.rowForProcessors(7).busLoad;
      case WorkloadKind::Threads5:
        return 0.54;
      case WorkloadKind::DmaIdle:
        return 0.30;
    }
    return 0.0;
}

// --- building -------------------------------------------------------------

Rig::Rig(const WorkloadSpec &spec, std::uint64_t seed, Spans *spans)
    : spec(spec), seed(seed), spans(spans), ioRng(seed)
{
    FireflyConfig cfg = FireflyConfig::microVax(
        spec.kind == WorkloadKind::Threads5  ? kThreads5Cpus
        : spec.kind == WorkloadKind::DmaIdle ? 4
                                             : 7);
    // The timed checked7 run uses the machine's own checker; the traced
    // one builds an identical checker below so it can be timed.
    cfg.coherenceCheck = spec.kind == WorkloadKind::Checked7 && !spans;
    sys = std::make_unique<FireflySystem>(cfg);
    sys->simulator().setWatchdog(kWatchdogCycles, true);

    if (spec.kind == WorkloadKind::Checked7 && spans) {
        bracketCheckerBus(sys->bus(), *spans, [&] {
            check::CheckerConfig cc;
            cc.throwOnViolation = true;
            ownChecker = std::make_unique<check::CoherenceChecker>(
                sys->simulator(), sys->bus(), sys->memory(), cfg.protocol,
                cc);
        });
        checkerProxy = std::make_unique<TimedObserver>(*ownChecker, *spans);
        for (unsigned i = 0; i < sys->processorCount(); ++i) {
            ownChecker->watch(sys->cache(i));
            sys->cache(i).setCoherenceObserver(checkerProxy.get());
        }
    }

    if (spec.kind == WorkloadKind::Threads5)
        attachTopaz();
    else
        attachSynthetic();
    if (spec.kind == WorkloadKind::DmaIdle)
        attachIo();
}

Rig::~Rig() = default;

void
Rig::attachSynthetic()
{
    SyntheticConfig base;
    base.seed = seed;
    if (spec.kind == WorkloadKind::DmaIdle)
        base.instructionLimit = kBurstInstructions;
    if (!spans) {
        sys->attachSyntheticWorkload(base);
        return;
    }
    // The streams attachSyntheticWorkload would build, each wrapped.
    std::vector<RefSource *> sources;
    for (unsigned i = 0; i < sys->processorCount(); ++i) {
        SyntheticConfig sc = base;
        const Addr stride = sc.codeBytes + sc.privateBytes;
        sc.codeBase = base.codeBase + i * stride;
        sc.privateBase = sc.codeBase + sc.codeBytes;
        sc.seed = base.seed + 7919 * i;
        streams.push_back(std::make_unique<SyntheticStream>(sc));
        timedSources.push_back(
            std::make_unique<TimedSource>(*streams.back(), *spans));
        sources.push_back(timedSources.back().get());
    }
    sys->attachSources(sources);
}

void
Rig::attachTopaz()
{
    TopazConfig tc;
    tc.cpus = kThreads5Cpus;
    tc.seed = seed;
    topaz = std::make_unique<TopazRuntime>(tc);
    ExerciserParams params;
    params.threads = kExerciserThreads;
    params.iterations = kExerciserIterations;
    expectedSum = buildThreadsExerciser(*topaz, params);

    std::vector<RefSource *> sources;
    for (unsigned i = 0; i < kThreads5Cpus; ++i) {
        if (spans) {
            timedSources.push_back(
                std::make_unique<TimedSource>(topaz->port(i), *spans));
            sources.push_back(timedSources.back().get());
        } else {
            sources.push_back(&topaz->port(i));
        }
    }
    sys->attachSources(sources);
}

void
Rig::attachIo()
{
    Simulator &sim = sys->simulator();
    qbus = std::make_unique<QBus>(sim, sys->ioCache(),
                                  sys->config().ioAddressLimit());
    qbus->identityMap();
    nic = std::make_unique<EthernetController>(sim, *qbus, "net0");
    disk = std::make_unique<DiskController>(sim, *qbus, "disk0");
    // Back-to-back traffic: each completion starts the next transfer,
    // so the QBus DMA engine always has a request queued.
    nic->setReceiveHandler([this](Addr, unsigned) { receiveNext(); });
    receiveNext();
    writeNext();
}

void
Rig::receiveNext()
{
    const Addr buffer = kRxRing + (rxPosted++ % kRxBuffers) * kRxBufferBytes;
    nic->addReceiveBuffer(buffer, kRxBufferBytes);
    std::vector<Word> payload((kPacketBytes + 3) / 4);
    for (Word &w : payload)
        w = static_cast<Word>(ioRng.next());
    nic->injectFromWire(std::move(payload), kPacketBytes);
}

void
Rig::writeNext()
{
    const auto lba = static_cast<unsigned>(
        ioRng.below(kDiskWindowSectors - kDiskSectors));
    const Addr buffer = kRxRing + (diskWrites++ % kDiskBuffers) *
                                      kDiskSectors * 512;
    disk->write(lba, kDiskSectors, buffer, [this](IoStatus status) {
        if (status != IoStatus::Ok)
            ++ioFailures;
        writeNext();
    });
}

// --- running --------------------------------------------------------------

template <typename Body>
void
Rig::guarded(Body body)
{
    try {
        body();
    } catch (const SimulationWedged &e) {
        failure = std::string("watchdog: ") + e.what();
    } catch (const check::CoherenceViolation &e) {
        failure = std::string("checker: ") + e.what();
    }
}

void
Rig::run()
{
    guarded([&] {
        if (spec.kind == WorkloadKind::Threads5) {
            sys->runToCompletion(kThreadsMaxCycles);
            return;
        }
        sys->simulator().run(spec.kind == WorkloadKind::Saturated7
                                 ? kSaturatedCycles
                             : spec.kind == WorkloadKind::Checked7
                                 ? kCheckedCycles
                                 : kDmaIdleCycles);
    });
}

void
Rig::runSliced()
{
    Simulator &sim = sys->simulator();
    const auto slice = [&](Cycle cycles) {
        const std::uint64_t t0 = spans ? spanNs() : 0;
        sim.run(cycles);
        if (spans) {
            const std::uint64_t dt = spanNs() - t0;
            spans->sliceNs += dt;
            spans->sliceUs.push_back(dt * 1e-3);
        }
    };
    guarded([&] {
        if (spec.kind == WorkloadKind::Threads5) {
            // runToCompletion's loop, one timed slice per step.
            const Cycle deadline = sim.now() + kThreadsMaxCycles;
            while (!sys->allHalted() && sim.now() < deadline)
                slice(kSliceCycles);
            return;
        }
        const Cycle end = sim.now() +
            (spec.kind == WorkloadKind::Saturated7  ? kSaturatedCycles
             : spec.kind == WorkloadKind::Checked7 ? kCheckedCycles
                                                   : kDmaIdleCycles);
        while (sim.now() < end)
            slice(std::min(kSliceCycles, end - sim.now()));
    });
}

// --- checking -------------------------------------------------------------

check::CoherenceChecker *
Rig::checker()
{
    return ownChecker ? ownChecker.get() : sys->checker();
}

Outcome
Rig::finish()
{
    Outcome out;
    out.cycles = sys->simulator().now();
    out.busLoad = sys->busLoad();
    out.counts = countMetrics();
    out.digest = digest();

    auto fail = [&](const std::string &why) {
        if (out.ok)
            out.failure = why;
        out.ok = false;
    };
    if (!failure.empty())
        fail(failure);

    if (spec.kind == WorkloadKind::Threads5) {
        if (!sys->allHalted() || !topaz->done())
            fail("threads5: the exerciser did not finish");
        // Read the lock-protected counters from memory once every
        // cache has written its dirty lines back (after the digest:
        // flushing changes cache state).
        for (unsigned i = 0; i < sys->processorCount(); ++i)
            sys->cache(i).flushFunctional();
        std::uint64_t sum = 0;
        for (unsigned c = 0; c < topaz->config().counters; ++c)
            sum += sys->memory().peek(topaz->counterAddr(c));
        if (sum != expectedSum) {
            fail("threads5: shared counters sum to " +
                 std::to_string(sum) + ", expected " +
                 std::to_string(expectedSum));
        }
    }
    if (auto *chk = checker()) {
        guarded([&] { chk->finalCheck(); });
        if (!failure.empty())
            fail(failure);
    }
    if (spec.kind == WorkloadKind::DmaIdle) {
        if (ioFailures != 0 || nic->rxDropped.value() != 0)
            fail("dma-idle: an I/O transfer failed or a packet dropped");
    }
    return out;
}

std::uint64_t
Rig::digest()
{
    // The checker's own subtree is left out: the timed checked7 run
    // registers it under the system group, the traced one does not.
    std::string text = statsJsonWithout(sys->stats(), "checker");
    std::ostringstream extra;
    if (topaz)
        topaz->stats().dumpJson(extra);
    if (qbus) {
        qbus->stats().dumpJson(extra);
        qbus->engine().stats().dumpJson(extra);
        nic->stats().dumpJson(extra);
        disk->stats().dumpJson(extra);
    }
    return fnv1a(text + extra.str());
}

std::map<std::string, double>
Rig::countMetrics()
{
    std::map<std::string, double> m;
    Simulator &sim = sys->simulator();
    const double cycles = static_cast<double>(sim.now());
    const double kcycles = cycles / 1000.0;

    m["sim.ff_skip_frac"] = ratio(sim.cyclesFastForwarded(), cycles);

    StatGroup &bus = sys->bus().stats();
    const double txns = bus.get("reads") + bus.get("writes") +
                        bus.get("reads_owned") + bus.get("invalidates");
    m["mbus.load"] = sys->busLoad();
    m["mbus.txn_per_kcycle"] = ratio(txns, kcycles);
    m["mbus.mshared_frac"] = ratio(bus.get("mshared_asserted"), txns);
    m["mbus.arb_wait_mean"] = histogramMean(bus, "arb_wait");
    m["mbus.dma_frac"] =
        ratio(bus.get("dma_reads") + bus.get("dma_writes"), txns);

    double refs = 0, hits = 0, tagRetries = 0, busOps = 0;
    for (unsigned i = 0; i < sys->processorCount(); ++i) {
        const Cache &c = sys->cache(i);
        refs += c.refsInstr.value() + c.refsRead.value() +
                c.refsWrite.value();
        hits += c.readHits.value() + c.writeHits.value();
        tagRetries += c.tagBusyRetries.value();
        busOps += c.fills.value() + c.victimWrites.value() +
                  c.wtMshared.value() + c.wtNoMshared.value() +
                  c.updatesSent.value() + c.invalidatesSent.value();
    }
    m["cache.hit_rate"] = ratio(hits, refs);
    m["cache.tag_retry_per_kref"] = ratio(tagRetries, refs / 1000.0);
    m["cache.bus_ops_per_kref"] = ratio(busOps, refs / 1000.0);

    double ticks = 0, memWait = 0, instrs = 0;
    for (unsigned i = 0; i < sys->processorCount(); ++i) {
        TraceCpu &cpu = sys->cpu(i);
        ticks += cpu.tickCount.value();
        memWait += cpu.memWaitTicks.value();
        instrs += cpu.instructions();
    }
    m["cpu.refs_per_kcycle"] = ratio(refs, kcycles);
    m["cpu.stall_frac"] = ratio(memWait, ticks);
    m["cpu.tpi"] = ratio(ticks, instrs);

    double memOps = 0;
    for (unsigned i = 0; i < sys->memory().moduleCount(); ++i) {
        StatGroup &mod = sys->memory().module(i).stats();
        memOps += mod.get("reads") + mod.get("writes");
    }
    m["mem.ops_per_kcycle"] = ratio(memOps, kcycles);

    const check::CoherenceChecker *chk = checker();
    m["check.loads_per_kcycle"] =
        chk ? ratio(chk->loadsChecked.value(), kcycles) : 0.0;
    m["check.full_scans"] = chk ? chk->fullScans.value() : 0.0;

    double switches = 0, user = 0, kernel = 0;
    if (topaz) {
        switches = topaz->contextSwitches.value();
        user = topaz->userInstructions.value();
        kernel = topaz->kernelInstructions.value();
    }
    m["topaz.switches_per_kinstr"] = ratio(switches, (user + kernel) / 1000.0);
    m["topaz.kernel_frac"] = ratio(kernel, user + kernel);

    const double dmaWords = qbus ? qbus->engine().wordsRead.value() +
                                       qbus->engine().wordsWritten.value()
                                 : 0.0;
    m["io.dma_words_per_kcycle"] = ratio(dmaWords, kcycles);
    return m;
}

// --- stat-tree helpers ----------------------------------------------------

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
statsJsonWithout(StatGroup &group, const std::string &child)
{
    std::ostringstream os;
    group.dumpJson(os);
    std::string text = os.str();
    const std::string key = "\"name\": \"" + child + "\"";
    const auto at = text.find(key);
    if (at == std::string::npos || at == 0)
        return text;
    auto begin = text.rfind('{', at);
    if (begin == 0 || begin == std::string::npos)
        return text;  // the group itself, not a child
    auto end = begin;
    int depth = 0;
    for (; end < text.size(); ++end) {
        if (text[end] == '{')
            ++depth;
        else if (text[end] == '}' && --depth == 0)
            break;
    }
    ++end;
    // Take the separator with it: ", " before, or after a first child.
    if (begin >= 2 && text.compare(begin - 2, 2, ", ") == 0)
        begin -= 2;
    else if (text.compare(end, 2, ", ") == 0)
        end += 2;
    return text.erase(begin, end - begin);
}

double
histogramMean(StatGroup &group, const std::string &name)
{
    std::ostringstream os;
    group.dumpJson(os);
    const std::string text = os.str();
    const auto at = text.find("\"" + name + "\": {\"bucket_width\"");
    if (at == std::string::npos)
        panic("no histogram '%s' in group '%s'", name.c_str(),
              group.name().c_str());
    const std::string key = "\"mean\": ";
    const auto mean = text.find(key, at);
    return std::strtod(text.c_str() + mean + key.size(), nullptr);
}

} // namespace perfbench
