/**
 * X-PERF: host throughput of the simulator itself.
 *
 * Every other bench regenerates a number from the paper; this one
 * measures the tool.  The sweep harness (X-JOBS), the fuzzer (X-FUZZ)
 * and the fault campaigns (X-FAULT) all burn simulated cycles by the
 * hundreds of millions, so simulated-cycles-per-host-second is the
 * binding constraint on every experiment grid.  This bench pins that
 * number down across protocols x CPU counts x workloads and writes a
 * machine-readable BENCH_perf.json so regressions show up in review
 * instead of in someone's overnight sweep.
 *
 * Two workloads bracket the space:
 *
 *   saturated - the calibrated synthetic stream on every CPU, endless;
 *               at 7 processors the MBus is heavily loaded (measured
 *               load ~0.64-0.67).  This measures the cycle-by-cycle
 *               engine: bus phases, snoops, cache dispatch.
 *   idle      - each CPU halts after a small instruction burst, then
 *               the machine idles to the horizon.  This measures the
 *               idle fast-forward path: the simulator should leap to
 *               the horizon instead of ticking ~half a million empty
 *               cycles.
 *
 * A third, `checked`, is the saturated machine under the coherence
 * checker: the cost of a checked run.  A fourth, `dma`, is bench_io_dma's
 * DMA traffic on the idle 4-CPU machine: each CPU halts after the idle
 * burst while back-to-back Ethernet receives and 4 KB disk writes keep
 * the QBus DMA engine busy through the I/O processor's cache, so every
 * stepped cycle is a bus cycle or a device event.
 *
 * Each point runs twice, fast-forward on and (forcibly) off, and
 * reports the ratio; behaviour and statistics are bit-identical
 * between the two (scripts/check.sh perf byte-compares the exports).
 * Three host-independent work counters back the wall-clock numbers:
 * Clocked::tick calls per simulated cycle (due-cycle gating), snoop
 * probes per bus transaction (the bus probes only the caches whose
 * tags hold the line) and events scheduled per simulated cycle, all
 * from the gated run; check.sh perf holds them to the committed
 * baseline exactly.  A checked point adds a fourth, lines the checker
 * checks per bus transaction (CoherenceChecker::lineChecks).  Every
 * point also counts heap allocations per thousand CPU references
 * during the simulated span, through the operator new replacement in
 * heap_count.cc (built into this binary only), and reports its bus
 * load.
 * Wall clock is std::chrono::steady_clock; every point gets a warmup
 * run plus `--perf-reps` measured repetitions, best-of reported
 * (minimum wall time - host noise only ever slows a run down).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "firefly/system.hh"
#include "io/disk.hh"
#include "io/ethernet.hh"
#include "io/qbus.hh"
#include "sim/stats.hh"

/** Calls of the global operator new so far (heap_count.cc). */
std::uint64_t heapAllocations();

namespace firefly
{
namespace
{

double perfSimSeconds = 0.05;
unsigned perfReps = 3;
std::string perfJsonPath;

struct Point
{
    const char *workload;  ///< "saturated", "idle", "checked" or "dma"
    ProtocolKind proto;
    unsigned cpus;
};

struct Measure
{
    double wallSec = 0.0;
    Cycle simCycles = 0;
    std::uint64_t refs = 0;
    Cycle ffSkipped = 0;
    std::uint64_t ticks = 0;       ///< Clocked::tick calls
    std::uint64_t snoops = 0;      ///< snoopProbe calls
    std::uint64_t txns = 0;        ///< bus transactions
    std::uint64_t events = 0;      ///< EventQueue::schedule calls
    bool checked = false;          ///< ran under the coherence checker
    std::uint64_t lineChecks = 0;  ///< CoherenceChecker::lineChecks
    std::uint64_t allocs = 0;      ///< operator new calls in run()
    double busLoad = 0.0;

    double
    cyclesPerSec() const
    {
        return wallSec > 0.0 ? simCycles / wallSec : 0.0;
    }

    double
    refsPerSec() const
    {
        return wallSec > 0.0 ? refs / wallSec : 0.0;
    }

    double
    ticksPerCycle() const
    {
        return simCycles ? static_cast<double>(ticks) / simCycles : 0.0;
    }

    double
    snoopsPerTxn() const
    {
        return txns ? static_cast<double>(snoops) / txns : 0.0;
    }

    double
    eventsPerCycle() const
    {
        return simCycles ? static_cast<double>(events) / simCycles : 0.0;
    }

    double
    lineChecksPerTxn() const
    {
        return txns ? static_cast<double>(lineChecks) / txns : 0.0;
    }

    double
    allocsPerKref() const
    {
        return refs ? 1000.0 * allocs / refs : 0.0;
    }
};

/** Back-to-back DMA: each completion starts the next transfer, so
 *  the QBus DMA engine always has a request queued. */
struct DmaTraffic
{
    static constexpr Addr kRing = 0x0030'0000;  // above the synthetic
                                                // footprint
    static constexpr unsigned kRxBuffers = 8;
    static constexpr unsigned kRxBufferBytes = 2048;
    static constexpr unsigned kPacketBytes = 1500;
    static constexpr unsigned kDiskSectors = 8;  // 4 KB
    static constexpr unsigned kDiskBuffers = 4;

    QBus qbus;
    EthernetController nic;
    DiskController disk;
    unsigned received = 0;
    unsigned written = 0;

    explicit DmaTraffic(FireflySystem &sys)
        : qbus(sys.simulator(), sys.ioCache(),
               sys.config().ioAddressLimit()),
          nic(sys.simulator(), qbus, "net0"),
          disk(sys.simulator(), qbus, "disk0")
    {
        qbus.identityMap();
        nic.setReceiveHandler([this](Addr, unsigned) { receiveNext(); });
        receiveNext();
        writeNext();
    }

    void
    receiveNext()
    {
        nic.addReceiveBuffer(
            kRing + (received++ % kRxBuffers) * kRxBufferBytes,
            kRxBufferBytes);
        nic.injectFromWire(
            std::vector<Word>(kPacketBytes / bytesPerWord, 0x55aa55aa),
            kPacketBytes);
    }

    void
    writeNext()
    {
        // Sequential writes over the first 128 sectors: the disk's
        // backing store stays small however long the run.
        const unsigned lba = (written * kDiskSectors) % 128;
        const Addr buffer = kRing + (written++ % kDiskBuffers) *
                                        kDiskSectors *
                                        DiskController::bytesPerSector;
        disk.write(lba, kDiskSectors, buffer, [this](IoStatus status) {
            if (status != IoStatus::Ok)
                fatal("dma point: a disk write timed out");
            writeNext();
        });
    }
};

/** One full simulation of the point; returns wall time and totals.
 *  `headline` additionally exports the stat tree (--stats-json). */
Measure
runOnce(const Point &pt, bool fast_forward, bool headline)
{
    FireflyConfig cfg = FireflyConfig::microVax(pt.cpus);
    cfg.protocol = pt.proto;
    cfg.coherenceCheck = std::string(pt.workload) == "checked";
    FireflySystem sys(bench::checkedConfig(cfg));

    SyntheticConfig sc;
    double simSeconds = perfSimSeconds;
    const bool dma = std::string(pt.workload) == "dma";
    if (std::string(pt.workload) == "idle" || dma) {
        // A short burst, then halt: the machine spends the vast
        // majority of the (10x longer) simulated span with every
        // component quiescent.  This models the real duty cycle of a
        // workstation - bursts of activity in a sea of idle time.
        sc.instructionLimit = 500;
        simSeconds *= 10.0;
    }
    sys.attachSyntheticWorkload(sc);
    std::optional<DmaTraffic> traffic;
    if (dma)
        traffic.emplace(sys);
    // --no-fast-forward forces the reference path on the "fast" runs
    // too, so the headline --stats-json can be compared across the
    // two paths (scripts/check.sh perf).
    sys.simulator().setFastForward(
        fast_forward && sys.simulator().fastForwardEnabled());

    const std::uint64_t allocs0 = heapAllocations();
    const auto t0 = std::chrono::steady_clock::now();
    sys.run(simSeconds);
    const auto t1 = std::chrono::steady_clock::now();

    Measure m;
    m.allocs = heapAllocations() - allocs0;
    m.wallSec = std::chrono::duration<double>(t1 - t0).count();
    m.simCycles = sys.simulator().now();
    m.refs = sys.totalCpuRefs();
    m.ffSkipped = sys.simulator().cyclesFastForwarded();
    m.ticks = sys.simulator().ticksDispatched();
    m.snoops = sys.bus().snoopCalls();
    m.events = sys.simulator().events().scheduled();
    if (const check::CoherenceChecker *checker = sys.checker()) {
        m.checked = true;
        m.lineChecks = checker->lineChecks();
    }
    m.busLoad = sys.busLoad();
    const StatGroup &bus = sys.bus().stats();
    m.txns = static_cast<std::uint64_t>(
        bus.get("reads") + bus.get("writes") + bus.get("reads_owned") +
        bus.get("invalidates"));
    if (headline)
        bench::exportStats(sys.stats());
    return m;
}

/** Warmup + perfReps measured runs; keeps the best (min wall). */
Measure
measure(const Point &pt, bool fast_forward, bool headline)
{
    runOnce(pt, fast_forward, false);  // warmup (host caches, JIT-free
                                       // but branch predictors count)
    Measure best;
    for (unsigned rep = 0; rep < perfReps; ++rep) {
        const Measure m = runOnce(pt, fast_forward, headline);
        if (rep == 0 || m.wallSec < best.wallSec)
            best = m;
    }
    return best;
}

void
experiment()
{
    bench::banner("X-PERF", "Host throughput of the simulator");
    std::printf(
        "Simulating %.3f s per point (%llu cycles), best of %u reps "
        "after warmup.\nff = idle fast-forward; 'speedup' is ff-on vs "
        "ff-off wall clock on the\nsame build (stats are "
        "byte-identical either way).\n\n",
        perfSimSeconds,
        static_cast<unsigned long long>(secondsToCycles(perfSimSeconds)),
        perfReps);

    const std::vector<Point> points = {
        {"idle", ProtocolKind::Firefly, 1},
        {"idle", ProtocolKind::Firefly, 4},
        {"idle", ProtocolKind::Firefly, 7},
        {"saturated", ProtocolKind::Firefly, 1},
        {"saturated", ProtocolKind::Firefly, 4},
        {"saturated", ProtocolKind::Firefly, 7},
        {"saturated", ProtocolKind::Dragon, 7},
        {"saturated", ProtocolKind::Mesi, 7},
        {"checked", ProtocolKind::Firefly, 7},
        {"dma", ProtocolKind::Firefly, 4},
    };

    std::printf("%-9s %-8s %3s | %12s %12s %9s | %12s %8s | %9s %9s "
                "%9s %11s %6s\n",
                "workload", "protocol", "np", "Mcycles/s", "Mrefs/s",
                "ff-skip%", "slow Mcyc/s", "speedup", "ticks/cyc",
                "snoop/txn", "evts/cyc", "allocs/kref", "load");
    bench::rule();

    std::string json;
    json += "{\"bench\":\"firefly_perf\",\"sim_seconds\":";
    json += statNumber(perfSimSeconds);
    json += ",\"reps\":" + std::to_string(perfReps);
    json += ",\"points\":[";

    bool first = true;
    for (const Point &pt : points) {
        // The headline export is the saturated 7-CPU Firefly machine.
        const bool headline = std::string(pt.workload) == "saturated" &&
                              pt.proto == ProtocolKind::Firefly &&
                              pt.cpus == 7;
        const Measure fast = measure(pt, true, headline);
        const Measure slow = measure(pt, false, false);
        const double speedup = fast.wallSec > 0.0
            ? slow.wallSec / fast.wallSec
            : 0.0;
        const double skipFrac = fast.simCycles
            ? 100.0 * fast.ffSkipped / fast.simCycles
            : 0.0;

        std::printf(
            "%-9s %-8s %3u | %12.2f %12.2f %8.1f%% | %12.2f %7.2fx | "
            "%9.3f %9.3f %9.4f %11.3f %6.3f\n",
            pt.workload, toString(pt.proto), pt.cpus,
            fast.cyclesPerSec() / 1e6, fast.refsPerSec() / 1e6,
            skipFrac, slow.cyclesPerSec() / 1e6, speedup,
            fast.ticksPerCycle(), fast.snoopsPerTxn(),
            fast.eventsPerCycle(), fast.allocsPerKref(), fast.busLoad);
        if (fast.checked) {
            std::printf("%24s | checker: %.3f line checks per "
                        "transaction\n",
                        "", fast.lineChecksPerTxn());
        }

        if (!first)
            json += ",";
        first = false;
        json += "{\"workload\":\"";
        json += pt.workload;
        json += "\",\"protocol\":\"";
        json += toString(pt.proto);
        json += "\",\"cpus\":" + std::to_string(pt.cpus);
        json += ",\"sim_cycles\":" + std::to_string(fast.simCycles);
        json += ",\"refs\":" + std::to_string(fast.refs);
        json += ",\"ff_skipped_cycles\":" +
                std::to_string(fast.ffSkipped);
        json += ",\"fast_cycles_per_sec\":" +
                statNumber(fast.cyclesPerSec());
        json += ",\"fast_refs_per_sec\":" +
                statNumber(fast.refsPerSec());
        json += ",\"slow_cycles_per_sec\":" +
                statNumber(slow.cyclesPerSec());
        json += ",\"speedup_vs_slow\":" + statNumber(speedup);
        json += ",\"tick_calls_per_cycle\":" +
                statNumber(fast.ticksPerCycle());
        json += ",\"snoop_calls_per_txn\":" +
                statNumber(fast.snoopsPerTxn());
        json += ",\"events_per_cycle\":" +
                statNumber(fast.eventsPerCycle());
        json += ",\"heap_allocs_per_kref\":" +
                statNumber(fast.allocsPerKref());
        if (fast.checked) {
            json += ",\"line_checks_per_txn\":" +
                    statNumber(fast.lineChecksPerTxn());
        }
        json += ",\"bus_load\":" + statNumber(fast.busLoad);
        json += "}";
    }
    json += "]}\n";

    bench::rule();
    std::printf("Host numbers vary by machine; the committed "
                "BENCH_perf.json is the trajectory\nbaseline "
                "scripts/check.sh perf compares against.\n");

    if (!perfJsonPath.empty()) {
        std::ofstream os(perfJsonPath);
        if (!os)
            fatal("cannot write perf JSON to %s", perfJsonPath.c_str());
        os << json;
    }
}

} // namespace
} // namespace firefly

int
main(int argc, char **argv)
{
    using firefly::bench::ExtraFlag;
    const std::vector<ExtraFlag> extras = {
        {"--perf-json=", "write machine-readable results to FILE",
         [](const std::string &v) {
             firefly::perfJsonPath = v;
             return true;
         }},
        {"--perf-reps=", "measured repetitions per point (default 3)",
         [](const std::string &v) {
             const auto n = firefly::bench::parseUnsigned(v);
             if (!n || *n < 1 || *n > 100)
                 return false;
             firefly::perfReps = static_cast<unsigned>(*n);
             return true;
         }},
        {"--perf-seconds=", "simulated seconds per point (default 0.05)",
         [](const std::string &v) {
             const auto s = firefly::bench::parseNumber(v);
             if (!s || *s <= 0.0 || *s > 10.0)
                 return false;
             firefly::perfSimSeconds = *s;
             return true;
         }},
    };
    return firefly::bench::runBenchMain(argc, argv,
                                        firefly::experiment, extras);
}
