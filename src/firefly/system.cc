#include "firefly/system.hh"

#include <sstream>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly
{

FireflySystem::FireflySystem(const FireflyConfig &config)
    : cfg(config), statGroup("system")
{
    cfg.validate();

    // Storage: whole modules, first module is the master.
    const Addr module = cfg.moduleBytes();
    Addr installed = 0;
    while (installed < cfg.memoryBytes) {
        mem.addModule(module);
        installed += module;
    }

    mbus = std::make_unique<MBus>(sim, mem);
    intc = std::make_unique<InterruptController>(sim);

    const Cache::Geometry geom = cfg.effectiveGeometry();
    for (unsigned i = 0; i < cfg.processors; ++i) {
        caches.push_back(std::make_unique<Cache>(
            sim, *mbus, makeProtocol(cfg.protocol), geom,
            "cache" + std::to_string(i)));
        statGroup.addChild(&caches.back()->stats());

        if (cfg.version == MachineVersion::Cvax &&
            cfg.onChipCacheEnabled) {
            onchips.push_back(std::make_unique<OnChipCache>(
                cfg.onChipMode, "onchip" + std::to_string(i)));
            statGroup.addChild(&onchips.back()->stats());
            if (cfg.onChipMode ==
                OnChipCache::DataMode::InstructionsAndData) {
                // A data-caching on-chip cache does not snoop; watch
                // bus commits to count (and repair) would-be staleness.
                OnChipCache *chip = onchips.back().get();
                mbus->addCommitObserver(
                    [chip](const MBusTransaction &txn) {
                        if (txn.type != MBusOpType::MRead)
                            chip->observeBusWrite(txn.addr, txn.words);
                    });
            }
        } else {
            onchips.push_back(nullptr);
        }
    }
    statGroup.addChild(&mbus->stats());
    statGroup.addChild(&mem.stats());
    statGroup.addChild(&intc->stats());

    if (cfg.faults.active()) {
        injector = std::make_unique<fault::FaultInjector>(cfg.faults);
        mbus->setFaultInjector(injector.get());
        mem.setFaultInjector(injector.get());
        sim.setWatchdog(fault::kWatchdogCycles,
                        cfg.faults.throwOnMachineCheck);
        injector->setMachineCheckHook(
            [this](const std::string &unit, const std::string &diag) {
                intc->raiseMachineCheck(unit, diag);
            });
        statGroup.addChild(&injector->stats());
    }

    if (cfg.coherenceCheck) {
        coherenceChecker = std::make_unique<check::CoherenceChecker>(
            sim, *mbus, mem, cfg.protocol);
        for (auto &cache : caches)
            coherenceChecker->watch(*cache);
        for (auto &chip : onchips) {
            if (chip)
                coherenceChecker->watch(*chip);
        }
        statGroup.addChild(&coherenceChecker->stats());
    }
}

void
FireflySystem::attachSyntheticWorkload(const SyntheticConfig &base)
{
    if (!cpus.empty())
        fatal("workload already attached");

    const CpuTiming timing = cfg.version == MachineVersion::MicroVax
        ? CpuTiming::microVax()
        : CpuTiming::cvax();

    for (unsigned i = 0; i < cfg.processors; ++i) {
        SyntheticConfig sc = base;
        // Per-processor program text and private data; the shared
        // region is common to all processors.
        const Addr stride = sc.codeBytes + sc.privateBytes;
        sc.codeBase = base.codeBase + i * stride;
        sc.privateBase = sc.codeBase + sc.codeBytes;
        sc.seed = base.seed + 7919 * i;
        const Addr end = sc.privateBase + sc.privateBytes;
        if (end > mem.sizeBytes()) {
            fatal("synthetic workload footprint 0x%x exceeds memory",
                  end);
        }
        ownedStreams.push_back(std::make_unique<SyntheticStream>(sc));
        cpus.push_back(std::make_unique<TraceCpu>(
            sim, *caches[i], *ownedStreams.back(), timing,
            "cpu" + std::to_string(i), onchips[i].get()));
        statGroup.addChild(&cpus.back()->stats());
    }
}

void
FireflySystem::attachSources(const std::vector<RefSource *> &sources)
{
    if (!cpus.empty())
        fatal("workload already attached");
    if (sources.size() != cfg.processors)
        fatal("need %u sources, got %zu", cfg.processors,
              sources.size());

    const CpuTiming timing = cfg.version == MachineVersion::MicroVax
        ? CpuTiming::microVax()
        : CpuTiming::cvax();

    for (unsigned i = 0; i < cfg.processors; ++i) {
        cpus.push_back(std::make_unique<TraceCpu>(
            sim, *caches[i], *sources[i], timing,
            "cpu" + std::to_string(i), onchips[i].get()));
        statGroup.addChild(&cpus.back()->stats());
    }
}

void
FireflySystem::run(double seconds)
{
    sim.run(secondsToCycles(seconds));
}

void
FireflySystem::runToCompletion(Cycle max_cycles)
{
    const Cycle deadline = sim.now() + max_cycles;
    while (!allHalted() && sim.now() < deadline)
        sim.run(1000);
    if (!allHalted())
        warn("runToCompletion hit the cycle limit");
}

void
FireflySystem::offlineProcessor(unsigned i, Cycle max_wait)
{
    TraceCpu &target = cpu(i);
    Cache &cache = *caches.at(i);
    target.fence();

    // Drain: the fenced CPU finishes any outstanding miss and halts,
    // its cache empties its queue, and the bus forgets it.  The rest
    // of the machine runs normally meanwhile.
    const Cycle deadline = sim.now() + max_wait;
    while (!(target.halted() && cache.idle() && !mbus->busy(&cache))) {
        if (sim.now() >= deadline) {
            fatal("offlineProcessor(%u): drain did not finish in "
                  "%llu cycles", i,
                  static_cast<unsigned long long>(max_wait));
        }
        sim.run(1);
    }

    // With nothing in flight the dirty lines can be written back
    // atomically; other caches never see the fenced board again.
    cache.flushFunctional();
    if (auto *ts = obs::traceSink()) {
        ts->instant(sim.now(), obs::kCatCpu, target.name(),
                    "cpu-offline");
    }
}

bool
FireflySystem::allHalted() const
{
    if (cpus.empty())
        return false;
    for (const auto &cpu : cpus) {
        if (!cpu->halted())
            return false;
    }
    return true;
}

std::uint64_t
FireflySystem::totalCpuRefs() const
{
    return totalCpuReads() + totalCpuWrites();
}

std::uint64_t
FireflySystem::totalCpuReads() const
{
    std::uint64_t total = 0;
    for (const auto &cache : caches)
        total += cache->refsInstr.value() + cache->refsRead.value();
    return total;
}

std::uint64_t
FireflySystem::totalCpuWrites() const
{
    std::uint64_t total = 0;
    for (const auto &cache : caches)
        total += cache->refsWrite.value();
    return total;
}

std::string
FireflySystem::topologyArt() const
{
    // Paper Figure 1, rendered for this configuration.
    std::ostringstream os;
    const unsigned np = cfg.processors;
    os << "Firefly (" << toString(cfg.version) << "), " << np
       << " processor" << (np > 1 ? "s" : "") << ", "
       << mem.sizeBytes() / (1024 * 1024) << " MB, protocol "
       << toString(cfg.protocol) << "\n\n";
    os << "  +--------+";
    for (unsigned i = 1; i < np; ++i)
        os << "  +--------+";
    os << "\n";
    os << "  | CPU  0 |";
    for (unsigned i = 1; i < np; ++i)
        os << "  | CPU  " << i << " |";
    os << "\n";
    os << "  | + FPU  |";
    for (unsigned i = 1; i < np; ++i)
        os << "  | + FPU  |";
    os << "\n";
    os << "  +--------+";
    for (unsigned i = 1; i < np; ++i)
        os << "  +--------+";
    os << "\n";
    os << "  | cache  |";
    for (unsigned i = 1; i < np; ++i)
        os << "  | cache  |";
    os << "\n";
    os << "  +---+----+";
    for (unsigned i = 1; i < np; ++i)
        os << "  +---+----+";
    os << "\n";
    os << "      |";
    for (unsigned i = 1; i < np; ++i)
        os << "           |";
    os << "\n  ====+";
    for (unsigned i = 1; i < np; ++i)
        os << "===========+";
    os << "==========================  MBus (10 MB/s)\n";
    os << "      |\n"
       << "  +---+----+     +-----------------+\n"
       << "  |  QBus  |-----| disk  net  MDC  |\n"
       << "  +--------+     +-----------------+\n"
       << "  (CPU 0 is the primary/I-O processor; storage: ";
    os << mem.moduleCount() << " x "
       << cfg.moduleBytes() / (1024 * 1024) << " MB modules)\n";
    return os.str();
}

} // namespace firefly
