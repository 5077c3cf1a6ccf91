#include "units.hh"

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "clock.hh"
#include "cpu/synthetic_stream.hh"
#include "firefly/system.hh"
#include "mem/main_memory.hh"
#include "report.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace perfbench
{

using namespace firefly;

namespace
{

constexpr unsigned kWarmupBatches = 3;
constexpr std::size_t kMinBatches = 5;
constexpr std::size_t kMaxBatches = 2000;

/** Median host ns per call; `batch` runs a batch, returns its calls. */
template <typename Batch>
double
nsPerCall(double budget, Batch batch)
{
    for (unsigned i = 0; i < kWarmupBatches; ++i)
        batch();
    std::vector<double> perCall;
    const double start = threadCpuSeconds();
    while (perCall.size() < kMinBatches ||
           (threadCpuSeconds() - start < budget &&
            perCall.size() < kMaxBatches)) {
        const double t0 = threadCpuSeconds();
        const double calls = batch();
        perCall.push_back((threadCpuSeconds() - t0) * 1e9 / calls);
    }
    return median(perCall);
}

/** A bare seven-cache Firefly bus: the MBus and cache layers alone. */
struct BusRig
{
    Simulator sim;
    MainMemory mem;
    std::unique_ptr<MBus> bus;
    std::vector<std::unique_ptr<Cache>> caches;

    BusRig()
    {
        mem.addModule(4 * 1024 * 1024);
        bus = std::make_unique<MBus>(sim, mem);
        for (unsigned i = 0; i < 7; ++i) {
            caches.push_back(std::make_unique<Cache>(
                sim, *bus, makeProtocol(ProtocolKind::Firefly),
                Cache::Geometry{}, "cache" + std::to_string(i)));
        }
    }

    /** One read through `cache`, run until its completion fires. */
    Word
    read(Cache &cache, Addr addr)
    {
        bool done = false;
        Word value = 0;
        const auto r = cache.cpuAccess({addr, RefType::DataRead, 0},
                                       [&](Word w) {
                                           done = true;
                                           value = w;
                                       });
        if (r.outcome == Cache::AccessOutcome::Hit)
            return r.data;
        while (!done)
            sim.run(1);
        return value;
    }
};

/** Random longword addresses in [base, base + bytes). */
std::vector<Addr>
randomWords(Rng &rng, Addr base, Addr bytes, std::size_t count)
{
    std::vector<Addr> addrs(count);
    for (Addr &a : addrs)
        a = base + rng.below(bytes / bytesPerWord) * bytesPerWord;
    return addrs;
}

double
eventNs(Rng &rng, double budget)
{
    constexpr unsigned kEvents = 1024;
    EventQueue q;
    std::vector<Cycle> offsets(kEvents);
    for (Cycle &o : offsets)
        o = 1 + rng.below(kEvents);
    Cycle horizon = 0;
    std::uint64_t fired = 0;
    const double ns = nsPerCall(budget, [&] {
        for (const Cycle o : offsets)
            q.schedule(horizon + o, [&fired] { ++fired; });
        horizon += kEvents + 1;
        q.runUntil(horizon);
        return double(kEvents);
    });
    keep(fired);
    return ns;
}

double
txnNs(Rng &rng, double budget)
{
    // Reads sweep 64 KB, four times the cache: every one misses and
    // fills over the bus while six other caches snoop.
    BusRig rig;
    constexpr unsigned kMisses = 256;
    constexpr Addr kSweepBytes = 0x1'0000;
    // Anywhere in the rig's 4 MB module.
    const Addr base = 0x0010'0000 + rng.below(32) * kSweepBytes;
    Addr next = 0;
    Word sum = 0;
    const double ns = nsPerCall(budget, [&] {
        for (unsigned i = 0; i < kMisses; ++i) {
            sum += rig.read(*rig.caches[0], base + next);
            next = (next + bytesPerWord) % kSweepBytes;
        }
        return double(kMisses);
    });
    keep(sum);
    return ns;
}

double
readHitNs(Rng &rng, double budget)
{
    BusRig rig;
    Cache &cache = *rig.caches[1];
    const std::vector<Addr> addrs =
        randomWords(rng, 0x0010'0000, cache.numLines() * bytesPerWord, 4096);
    for (const Addr a : addrs)
        rig.read(cache, a);
    rig.sim.run(8);  // past any snoop's tag-busy cycle
    if (cache.cpuAccess({addrs[0], RefType::DataRead, 0}, {}).outcome !=
        Cache::AccessOutcome::Hit) {
        panic("read-hit microbenchmark: warmed line missed");
    }
    Word sum = 0;
    const double ns = nsPerCall(budget, [&] {
        for (const Addr a : addrs)
            sum += cache.cpuAccess({a, RefType::DataRead, 0}, {}).data;
        return double(addrs.size());
    });
    keep(sum);
    return ns;
}

double
snoopProbeNs(Rng &rng, double budget)
{
    BusRig rig;
    Cache &idle = *rig.caches[2];  // holds nothing: every probe misses
    const std::vector<Addr> addrs =
        randomWords(rng, 0x0010'0000, 1024 * 1024, 4096);
    MBusTransaction txn;
    txn.initiator = rig.caches[0].get();
    unsigned shared = 0;
    const double ns = nsPerCall(budget, [&] {
        for (const Addr a : addrs) {
            txn.addr = a;
            shared += idle.snoopProbe(txn).shared;
        }
        return double(addrs.size());
    });
    keep(shared);
    return ns;
}

double
syntheticNextNs(std::uint64_t seed, double budget)
{
    SyntheticConfig sc;
    sc.seed = seed;
    SyntheticStream stream(sc);
    constexpr unsigned kSteps = 4096;
    Addr sum = 0;
    const double ns = nsPerCall(budget, [&] {
        for (unsigned i = 0; i < kSteps; ++i)
            sum += stream.next().ref.addr;
        return double(kSteps);
    });
    keep(sum);
    return ns;
}

/** MainMemory::write then ::read at random words over 8 MB. */
std::pair<double, double>
memoryNs(Rng &rng, double budget)
{
    MainMemory mem;
    for (int i = 0; i < 4; ++i)
        mem.addModule(4 * 1024 * 1024);
    const std::vector<Addr> addrs = randomWords(rng, 0, 8 * 1024 * 1024,
                                                65536);
    Word value = 0;
    const double writeNs = nsPerCall(budget, [&] {
        for (const Addr a : addrs)
            mem.write(a, ++value);
        return double(addrs.size());
    });
    Word sum = 0;
    const double readNs = nsPerCall(budget, [&] {
        for (const Addr a : addrs)
            sum += mem.read(a);
        return double(addrs.size());
    });
    keep(sum);
    return {readNs, writeNs};
}

double
finalScanMs(std::uint64_t seed, double budget)
{
    // A checked seven-CPU machine after a short saturated run.
    FireflyConfig cfg = FireflyConfig::microVax(7);
    cfg.coherenceCheck = true;
    FireflySystem sys(cfg);
    SyntheticConfig sc;
    sc.seed = seed;
    sys.attachSyntheticWorkload(sc);
    sys.simulator().run(20'000);
    return nsPerCall(budget, [&] {
        sys.checker()->finalCheck();
        return 1.0;
    }) * 1e-6;
}

} // namespace

std::map<std::string, double>
runUnits(std::uint64_t seed, double seconds)
{
    // One share per microbenchmark; memoryNs splits its share between
    // the write and the read it times.
    const double each = seconds / 7;
    Rng rng(seed);
    std::map<std::string, double> m;
    m["sim.event_ns"] = eventNs(rng, each);
    m["mbus.txn_ns"] = txnNs(rng, each);
    m["cache.read_hit_ns"] = readHitNs(rng, each);
    m["cache.snoop_probe_ns"] = snoopProbeNs(rng, each);
    m["cpu.synthetic_next_ns"] = syntheticNextNs(seed, each);
    const auto [readNs, writeNs] = memoryNs(rng, each / 2);
    m["mem.read_ns"] = readNs;
    m["mem.write_ns"] = writeNs;
    m["check.final_scan_ms"] = finalScanMs(seed, each);
    return m;
}

} // namespace perfbench
