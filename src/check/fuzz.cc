#include "check/fuzz.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "io/dma_engine.hh"
#include "mbus/mbus.hh"
#include "mem/main_memory.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace firefly::check
{

namespace
{

/** Address layout: a hot shared pool, then per-CPU private pools. */
constexpr Addr sharedBase = 0x1000;
constexpr Addr privateBase = 0x40000;
constexpr Addr privateStride = 0x8000;

/** One pre-generated operation of the reference stream. */
struct FuzzOp
{
    enum class Kind : std::uint8_t
    {
        Load,
        Store,
        DmaRead,
        DmaWrite,
    };

    Kind kind;
    unsigned cpu = 0;          ///< CPU ops: which cache
    Addr addr = 0;
    unsigned words = 1;        ///< DMA ops: burst length
    std::vector<Word> data;    ///< store/DMA-write values
};

/**
 * Generate the whole reference stream from the seed.  This consumes
 * the Rng in a fixed order that depends on nothing but the
 * configuration, so every protocol replays the identical stream.
 */
std::vector<FuzzOp>
generateOps(const FuzzConfig &cfg, Rng &rng)
{
    std::vector<FuzzOp> ops;
    ops.reserve(cfg.steps);
    for (unsigned i = 0; i < cfg.steps; ++i) {
        FuzzOp op;
        if (rng.chance(cfg.dmaFrac)) {
            const bool is_write = rng.chance(0.5);
            op.kind = is_write ? FuzzOp::Kind::DmaWrite
                               : FuzzOp::Kind::DmaRead;
            const unsigned max_burst =
                std::min<unsigned>(cfg.dmaBurstMax, cfg.sharedWords);
            op.words = 1 + rng.below(max_burst);
            const unsigned slot =
                rng.below(cfg.sharedWords - op.words + 1);
            op.addr = sharedBase + slot * bytesPerWord;
            if (is_write) {
                for (unsigned w = 0; w < op.words; ++w)
                    op.data.push_back(static_cast<Word>(rng.next()));
            }
        } else {
            op.cpu = rng.below(cfg.nCaches);
            Addr pool_base;
            unsigned pool_words;
            if (rng.chance(cfg.sharedFrac)) {
                pool_base = sharedBase;
                pool_words = cfg.sharedWords;
            } else {
                // Mostly this CPU's pool; sometimes another's, so
                // lines migrate between caches and hit the
                // write-back / re-fetch paths.
                unsigned owner = op.cpu;
                if (rng.chance(cfg.migrateFrac))
                    owner = rng.below(cfg.nCaches);
                pool_base = privateBase + owner * privateStride;
                pool_words = cfg.privateWords;
            }
            op.addr = pool_base + rng.below(pool_words) * bytesPerWord;
            if (rng.chance(cfg.writeFrac)) {
                op.kind = FuzzOp::Kind::Store;
                op.data.push_back(static_cast<Word>(rng.next()));
            } else {
                op.kind = FuzzOp::Kind::Load;
            }
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

} // namespace

FuzzResult
runFuzz(const FuzzConfig &cfg)
{
    if (cfg.nCaches == 0 || cfg.sharedWords == 0 ||
        cfg.privateWords == 0 || cfg.steps == 0) {
        panic("fuzz: degenerate configuration");
    }

    Simulator sim;
    MainMemory memory;
    memory.addModule(4 * 1024 * 1024);
    MBus bus(sim, memory);

    const Cache::Geometry geom{cfg.cacheBytes, cfg.lineBytes};
    std::vector<std::unique_ptr<Cache>> caches;
    const ProtocolTable &protocol = cfg.protocolTable
                                        ? *cfg.protocolTable
                                        : makeProtocol(cfg.protocol);
    for (unsigned i = 0; i < cfg.nCaches; ++i) {
        caches.push_back(std::make_unique<Cache>(
            sim, bus, protocol, geom, "cache" + std::to_string(i)));
    }

    CheckerConfig checker_cfg;
    checker_cfg.fullScanPeriod = cfg.fullScanPeriod;
    checker_cfg.throwOnViolation = true;
    CoherenceChecker checker(sim, bus, memory, cfg.protocol,
                             checker_cfg);
    for (auto &cache : caches)
        checker.watch(*cache);
    if (cfg.onBuilt) {
        FuzzMachine machine{sim, bus, {}, checker};
        for (const auto &cache : caches)
            machine.caches.push_back(cache.get());
        cfg.onBuilt(machine);
    }

    // Cache 0 plays the I/O processor: DMA flows through it.
    DmaEngine dma(sim, *caches[0], 16 * 1024 * 1024);

    std::unique_ptr<fault::FaultInjector> injector;
    if (cfg.faults.active()) {
        injector = std::make_unique<fault::FaultInjector>(cfg.faults);
        bus.setFaultInjector(injector.get());
        memory.setFaultInjector(injector.get());
        dma.setFaultInjector(injector.get());
        // Throw mode: a wedge under fault injection is a test
        // failure, not a reason to kill the whole process.
        sim.setWatchdog(cfg.faults.watchdogCycles, true);
    }

    Rng rng(cfg.seed);
    const std::vector<FuzzOp> ops = generateOps(cfg, rng);

    FuzzResult result;

    // Issue one operation at a time, running the clock until each
    // completes; serialized issue is what makes load values exact and
    // protocol-independent for the differential comparison.
    const auto cpuAccess = [&](unsigned cpu, const MemRef &ref) {
        bool done = false;
        Word data = 0;
        for (;;) {
            auto r = caches[cpu]->cpuAccess(
                ref, [&](Word w) { done = true; data = w; });
            if (r.outcome == Cache::AccessOutcome::Hit)
                return r.data;
            if (r.outcome == Cache::AccessOutcome::Pending)
                break;
            sim.run(1);  // tag store busy: retry next cycle
        }
        while (!done)
            sim.run(1);
        return data;
    };

    for (const FuzzOp &op : ops) {
        switch (op.kind) {
          case FuzzOp::Kind::Load: {
            const Word v =
                cpuAccess(op.cpu, {op.addr, RefType::DataRead, 0});
            checker.requireCurrent(op.addr, v, caches[op.cpu]->name());
            ++result.loads;
            if (cfg.recordLoads)
                result.loadLog.push_back(v);
            break;
          }
          case FuzzOp::Kind::Store:
            cpuAccess(op.cpu,
                      {op.addr, RefType::DataWrite, op.data[0]});
            ++result.stores;
            break;
          case FuzzOp::Kind::DmaRead: {
            // Retry timed-out transfers with the injector's budget,
            // then give up gracefully (the op is skipped; every
            // protocol skips the same ops for a given seed).
            IoStatus status = IoStatus::Ok;
            std::vector<Word> values;
            for (unsigned attempt = 0;; ++attempt) {
                bool done = false;
                dma.readWords(op.addr, op.words,
                              [&](IoStatus st, std::vector<Word> v) {
                                  done = true;
                                  status = st;
                                  values = std::move(v);
                              });
                while (!done)
                    sim.run(1);
                if (status == IoStatus::Ok || !injector ||
                    attempt + 1 >= injector->config().deviceRetryBudget)
                    break;
                ++injector->deviceRetries;
            }
            if (status != IoStatus::Ok) {
                ++injector->deviceFailures;
                break;
            }
            for (unsigned w = 0; w < op.words; ++w) {
                checker.requireCurrent(op.addr + w * bytesPerWord,
                                       values[w], "DMA");
            }
            result.dmaReads += op.words;
            if (cfg.recordLoads) {
                result.loadLog.insert(result.loadLog.end(),
                                      values.begin(), values.end());
            }
            break;
          }
          case FuzzOp::Kind::DmaWrite: {
            IoStatus status = IoStatus::Ok;
            for (unsigned attempt = 0;; ++attempt) {
                bool done = false;
                dma.writeWords(op.addr, op.data, [&](IoStatus st) {
                    done = true;
                    status = st;
                });
                while (!done)
                    sim.run(1);
                if (status == IoStatus::Ok || !injector ||
                    attempt + 1 >= injector->config().deviceRetryBudget)
                    break;
                ++injector->deviceRetries;
            }
            if (status != IoStatus::Ok) {
                ++injector->deviceFailures;
                break;
            }
            result.dmaWrites += op.words;
            break;
          }
        }
    }

    while (!dma.idle())
        sim.run(1);
    checker.finalCheck();

    result.cycles = sim.now();
    result.loadsChecked = checker.loadsChecked.value();
    result.writesTracked = checker.writesTracked.value();
    result.fullScans = checker.fullScans.value();
    if (injector) {
        result.parityErrors = injector->parityErrors.value();
        result.parityRecovered = injector->parityRecovered.value();
        result.eccCorrected = injector->eccCorrected.value();
        result.deviceTimeouts = injector->deviceTimeouts.value();
        result.deviceRetries = injector->deviceRetries.value();
        result.deviceFailures = injector->deviceFailures.value();
    }
    return result;
}

} // namespace firefly::check
