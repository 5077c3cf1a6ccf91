#include "check/fuzz.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace firefly::check
{

namespace
{

/** Address layout: a hot shared pool, then per-CPU private pools of
 *  `privateWords` words each. */
constexpr Addr sharedBase = 0x1000;
constexpr Addr privateBase = 0x40000;
constexpr Addr privateStride = 0x8000;
constexpr unsigned privateWords = 32;

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
                pool_words = privateWords;
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
    if (cfg.nCaches == 0 || cfg.sharedWords == 0 || cfg.steps == 0) {
        panic("fuzz: degenerate configuration");
    }

    FireflyConfig machine = checked(rigConfig(
        cfg.protocol, cfg.nCaches, {cfg.cacheBytes, cfg.lineBytes}));
    machine.protocolTable = cfg.protocolTable;
    machine.checker.fullScanPeriod = cfg.fullScanPeriod;
    // A machine check or a wedge under fault injection is a test
    // failure, not a reason to kill the whole process.
    machine.faults = cfg.faults;
    machine.faults.throwOnMachineCheck = true;
    Rig rig(machine);
    CoherenceChecker &checker = *rig.checker;
    if (cfg.onBuilt)
        cfg.onBuilt(rig);

    Rng rng(cfg.seed);
    const std::vector<FuzzOp> ops = generateOps(cfg, rng);

    FuzzResult result;

    // Issue one operation at a time, running the clock until each
    // completes; serialized issue is what makes load values exact and
    // protocol-independent for the differential comparison.
    for (const FuzzOp &op : ops) {
        switch (op.kind) {
          case FuzzOp::Kind::Load: {
            const Word v = rig.read(op.cpu, op.addr);
            checker.requireCurrent(op.addr, v, rig.caches[op.cpu]->name());
            ++result.loads;
            if (cfg.recordLoads)
                result.loadLog.push_back(v);
            break;
          }
          case FuzzOp::Kind::Store:
            rig.write(op.cpu, op.addr, op.data[0]);
            ++result.stores;
            break;
          case FuzzOp::Kind::DmaRead: {
            // A transfer that times out past the engine's retry budget
            // is skipped; every protocol skips the same ops for a
            // given seed.
            IoStatus status = IoStatus::Ok;
            const std::vector<Word> values =
                rig.dmaRead(op.addr, op.words, &status);
            if (status != IoStatus::Ok)
                break;
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
          case FuzzOp::Kind::DmaWrite:
            if (rig.dmaWrite(op.addr, op.data) == IoStatus::Ok)
                result.dmaWrites += op.words;
            break;
        }
    }

    while (!rig.dma.idle())
        rig.sim.run(1);
    checker.finalCheck();

    result.cycles = rig.sim.now();
    result.loadsChecked = checker.loadsChecked.value();
    result.writesTracked = checker.writesTracked.value();
    result.fullScans = checker.fullScans.value();
    if (auto *injector = rig.machine.faultInjector()) {
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
