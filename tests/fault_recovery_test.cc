/**
 * @file
 * End-to-end tests for the fault-injection subsystem (src/fault/):
 *
 *  - a seed x protocol fuzz campaign with parity, ECC, and device
 *    faults armed must stay oracle-clean, with every recoverable
 *    fault observed recovering in the flight recorder;
 *  - deliberately unrecoverable faults (double-bit ECC, parity retry
 *    budget exhaustion) must die with a deterministic machine-check
 *    diagnostic, never a hang or silent corruption;
 *  - a processor fenced mid-run must flush its dirty lines and leave
 *    an N-1 machine that keeps delivering work;
 *  - a hung DMA request is retried by the DMA engine with backoff and
 *    reaches its requester once, as TimedOut, only after the retry
 *    budget is spent;
 *  - the event-queue watchdog must turn a wedged simulation into a
 *    diagnostic with the pending-event list.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/fuzz.hh"
#include "check/rig.hh"
#include "fault/fault_injector.hh"
#include "firefly/system.hh"
#include "io/disk.hh"
#include "io/ethernet.hh"
#include "io/qbus.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"
#include "topaz/runtime.hh"
#include "topaz/workloads.hh"

using namespace firefly;
using check::FuzzConfig;
using check::FuzzResult;
using check::runFuzz;
using fault::FaultConfig;
using fault::MachineCheck;

namespace
{

/** Captures every trace event for inspection. */
struct RecordingSink : obs::TraceSink
{
    std::vector<obs::TraceEvent> events;

    void event(const obs::TraceEvent &ev) override
    {
        events.push_back(ev);
    }

    std::size_t
    count(const std::string &name) const
    {
        std::size_t n = 0;
        for (const auto &ev : events)
            n += ev.name == name;
        return n;
    }
};

/** A rig whose DMA engine, behind a QBus, times out every request. */
struct HungDeviceRig : check::Rig
{
    fault::FaultInjector injector{hungDevices()};
    QBus qbus{sim, *caches[0], 16 * 1024 * 1024};

    HungDeviceRig()
        : Rig(check::rigConfig(ProtocolKind::Firefly))
    {
        qbus.identityMap();
        qbus.engine().setFaultInjector(&injector);
    }

    static FaultConfig
    hungDevices()
    {
        FaultConfig cfg;
        cfg.rates.deviceTimeout = 1.0;
        return cfg;
    }
};

std::size_t
occurrences(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

/** A fuzz config with the standard recoverable-fault campaign. */
FuzzConfig
faultyConfig(ProtocolKind protocol, std::uint64_t seed)
{
    FuzzConfig cfg;
    cfg.protocol = protocol;
    cfg.seed = seed;
    cfg.steps = 500;
    cfg.dmaFrac = 0.2;
    cfg.faults.enabled = true;
    cfg.faults.seed = seed ^ 0xFA17;
    cfg.faults.rates.busParity = 0.01;
    cfg.faults.rates.eccSingle = 0.02;
    cfg.faults.rates.deviceTimeout = 0.1;
    cfg.faults.throwOnMachineCheck = true;
    return cfg;
}

} // namespace

// The acceptance campaign: 20 seeds x 3 protocols with parity, ECC,
// and device-timeout faults all armed.  Every run must finish with
// zero oracle violations, and in aggregate every fault class must
// both fire and recover.
TEST(FaultRecovery, FuzzCampaignRecoversAcrossSeedsAndProtocols)
{
    const ProtocolKind kinds[] = {ProtocolKind::Firefly,
                                  ProtocolKind::Mesi,
                                  ProtocolKind::Dragon};
    FuzzResult total;
    for (const ProtocolKind kind : kinds) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            FuzzResult r;
            ASSERT_NO_THROW(r = runFuzz(faultyConfig(kind, seed)))
                << toString(kind) << " seed " << seed;
            // Every NACKed transaction either recovered or is the
            // last one still awaiting its backed-off retry.
            EXPECT_LE(r.parityErrors - r.parityRecovered, 3u)
                << toString(kind) << " seed " << seed;
            total.parityErrors += r.parityErrors;
            total.parityRecovered += r.parityRecovered;
            total.eccCorrected += r.eccCorrected;
            total.deviceTimeouts += r.deviceTimeouts;
            total.deviceRetries += r.deviceRetries;
            total.loadsChecked += r.loadsChecked;
        }
    }
    // The campaign exercised every fault class.
    EXPECT_GT(total.parityErrors, 0u);
    EXPECT_GT(total.parityRecovered, 0u);
    EXPECT_GT(total.eccCorrected, 0u);
    EXPECT_GT(total.deviceTimeouts, 0u);
    EXPECT_GT(total.deviceRetries, 0u);
    EXPECT_GT(total.loadsChecked, 0u);
}

// Every recoverable fault is visible in the flight recorder, and the
// event counts agree exactly with the injector's counters.
TEST(FaultRecovery, FlightRecorderSeesEveryFaultAndRecovery)
{
    RecordingSink sink;
    FuzzResult r;
    {
        obs::ScopedTraceSink scoped(&sink);
        FuzzConfig cfg = faultyConfig(ProtocolKind::Firefly, 42);
        cfg.faults.rates.busParity = 0.03;
        cfg.faults.rates.deviceTimeout = 0.3;
        r = runFuzz(cfg);
    }
    EXPECT_EQ(sink.count("parity-nack"), r.parityErrors);
    EXPECT_EQ(sink.count("parity-recovered"), r.parityRecovered);
    EXPECT_EQ(sink.count("ecc-corrected"), r.eccCorrected);
    EXPECT_EQ(sink.count("device-timeout"), r.deviceTimeouts);
    // The campaign rates make every class fire in this seed.
    EXPECT_GT(r.parityErrors, 0u);
    EXPECT_GT(r.parityRecovered, 0u);
    EXPECT_GT(r.eccCorrected, 0u);
    EXPECT_GT(r.deviceTimeouts, 0u);
}

// Identical seed and fault config reproduce identical fault activity.
TEST(FaultRecovery, FaultCampaignIsDeterministic)
{
    const FuzzConfig cfg = faultyConfig(ProtocolKind::Mesi, 7);
    const FuzzResult a = runFuzz(cfg);
    const FuzzResult b = runFuzz(cfg);
    EXPECT_EQ(a.parityErrors, b.parityErrors);
    EXPECT_EQ(a.parityRecovered, b.parityRecovered);
    EXPECT_EQ(a.eccCorrected, b.eccCorrected);
    EXPECT_EQ(a.deviceTimeouts, b.deviceTimeouts);
    EXPECT_EQ(a.deviceRetries, b.deviceRetries);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.loadsChecked, b.loadsChecked);
}

// A double-bit ECC error is unrecoverable: deterministic machine
// check, not a hang and not a wrong value handed to a CPU.
TEST(FaultRecovery, DoubleBitEccIsDeterministicMachineCheck)
{
    FuzzConfig cfg = faultyConfig(ProtocolKind::Firefly, 3);
    cfg.faults.rates = {};
    cfg.faults.rates.eccDouble = 0.05;

    std::string first, second;
    try {
        runFuzz(cfg);
    } catch (const MachineCheck &mc) {
        first = mc.what();
        EXPECT_NE(std::string(mc.diagnostic).find("uncorrectable"),
                  std::string::npos);
    }
    ASSERT_FALSE(first.empty()) << "no machine check raised";
    try {
        runFuzz(cfg);
    } catch (const MachineCheck &mc) {
        second = mc.what();
    }
    EXPECT_EQ(first, second);
}

// Exhausting the parity retry budget is the other unrecoverable
// path: the diagnostic names the budget and reproduces exactly.
TEST(FaultRecovery, ParityBudgetExhaustionIsDeterministicMachineCheck)
{
    FuzzConfig cfg = faultyConfig(ProtocolKind::Firefly, 5);
    cfg.faults.rates = {};
    cfg.faults.rates.busParity = 1.0;  // every attempt is NACKed

    std::string first, second;
    try {
        runFuzz(cfg);
    } catch (const MachineCheck &mc) {
        first = mc.what();
        EXPECT_NE(std::string(mc.diagnostic).find("retry budget"),
                  std::string::npos);
    }
    ASSERT_FALSE(first.empty()) << "no machine check raised";
    try {
        runFuzz(cfg);
    } catch (const MachineCheck &mc) {
        second = mc.what();
    }
    EXPECT_EQ(first, second);
}

// Whole-machine wiring: FireflySystem owns the injector, the oracle
// stays clean under faults, and recovery counters land in the
// system's stat tree.
TEST(FaultRecovery, SystemRunUnderFaultsStaysCoherent)
{
    FireflyConfig cfg = FireflyConfig::microVax(3);
    cfg.coherenceCheck = true;
    cfg.faults.enabled = true;
    cfg.faults.seed = 11;
    cfg.faults.rates.busParity = 0.002;
    cfg.faults.rates.eccSingle = 0.05;

    FireflySystem sys(cfg);
    sys.attachSyntheticWorkload(SyntheticConfig{});
    sys.run(0.01);
    sys.checker()->finalCheck();

    const fault::FaultInjector &inj = *sys.faultInjector();
    EXPECT_GT(inj.parityErrors.value(), 0u);
    EXPECT_GT(inj.eccCorrected.value(), 0u);
    EXPECT_LE(inj.parityErrors.value() - inj.parityRecovered.value(),
              cfg.processors);
    EXPECT_EQ(inj.machineChecks.value(), 0u);
    // The injector's counters are registered stats.
    EXPECT_GT(sys.faultInjector()->stats().get("parity_errors"), 0.0);
}

// An unrecoverable fault inside a full system is counted and recorded
// in the flight recorder before the run unwinds.
TEST(FaultRecovery, MachineCheckRecordedBeforeTheThrow)
{
    FireflyConfig cfg = FireflyConfig::microVax(2);
    cfg.faults.enabled = true;
    cfg.faults.seed = 2;
    cfg.faults.rates.eccDouble = 0.01;
    cfg.faults.throwOnMachineCheck = true;

    FireflySystem sys(cfg);
    sys.attachSyntheticWorkload(SyntheticConfig{});

    RecordingSink sink;
    obs::ScopedTraceSink scoped(&sink);
    try {
        sys.run(0.05);
        FAIL() << "expected a machine check";
    } catch (const MachineCheck &mc) {
        EXPECT_FALSE(mc.unit.empty());
        EXPECT_FALSE(mc.diagnostic.empty());
        EXPECT_EQ(mc.what(), "machine check [" + mc.unit + "]: " +
                                 mc.diagnostic);
        // The run's last event is the machine check, carrying the
        // payload the exception carries.
        ASSERT_FALSE(sink.events.empty());
        const obs::TraceEvent &ev = sink.events.back();
        EXPECT_EQ(ev.kind, obs::EventKind::Instant);
        EXPECT_STREQ(ev.category, obs::kCatFault);
        EXPECT_EQ(ev.name, "machine-check");
        EXPECT_EQ(ev.arg("unit"), mc.unit);
        EXPECT_EQ(ev.arg("diag"), mc.diagnostic);
        EXPECT_EQ(sink.count("machine-check"), 1u);
    }
    EXPECT_EQ(sys.faultInjector()->stats().get("machine_checks"), 1.0);
    EXPECT_EQ(sys.faultInjector()->machineChecks.value(), 1u);
}

// Fencing a processor mid-run: dirty lines flushed (oracle-verified),
// and the remaining N-1 processors keep delivering references.
TEST(FaultRecovery, CpuOfflineKeepsMachineRunning)
{
    FireflyConfig cfg = FireflyConfig::microVax(3);
    cfg.coherenceCheck = true;
    FireflySystem sys(cfg);
    sys.attachSyntheticWorkload(SyntheticConfig{});

    sys.run(0.005);
    const std::uint64_t refs_before = sys.totalCpuRefs();
    ASSERT_GT(refs_before, 0u);

    sys.offlineProcessor(2);
    EXPECT_TRUE(sys.cpu(2).halted());
    EXPECT_TRUE(sys.cache(2).idle());

    sys.run(0.005);
    // The survivors kept issuing; the fenced CPU stayed down.
    EXPECT_GT(sys.totalCpuRefs(), refs_before);
    EXPECT_TRUE(sys.cpu(2).halted());
    // No dirty data was lost at the flush.
    sys.checker()->finalCheck();
}

// Offlining under Topaz: the fenced processor's thread is requeued
// and the workload still runs to completion on N-1 CPUs.
TEST(FaultRecovery, TopazWorkloadCompletesAfterOffline)
{
    const unsigned cpus = 3;
    FireflyConfig cfg = FireflyConfig::microVax(cpus);
    cfg.coherenceCheck = true;
    FireflySystem sys(cfg);

    TopazConfig tc;
    tc.cpus = cpus;
    TopazRuntime runtime(tc);
    ExerciserParams params;
    params.threads = 8;
    params.iterations = 40;
    buildThreadsExerciser(runtime, params);

    std::vector<RefSource *> sources;
    for (unsigned i = 0; i < cpus; ++i)
        sources.push_back(&runtime.port(i));
    sys.attachSources(sources);

    sys.simulator().run(100'000);
    ASSERT_FALSE(runtime.done());

    // Topaz first (requeues the running thread), then the hardware.
    runtime.offlineCpu(2);
    sys.offlineProcessor(2);
    EXPECT_TRUE(sys.cpu(2).halted());

    sys.runToCompletion(100'000'000);
    EXPECT_TRUE(runtime.done());
    sys.checker()->finalCheck();
}

// The watchdog turns "no progress" into a diagnostic that lists the
// pending events instead of spinning forever.
TEST(FaultRecovery, WatchdogReportsWedgeWithPendingEvents)
{
    Simulator sim;
    sim.setWatchdog(1000, true);
    // An event far beyond the horizon: the queue is non-empty but
    // nothing ever executes.
    sim.events().schedule(5'000'000, [] {}, "stuck completion");

    try {
        sim.run(10'000);
        FAIL() << "expected SimulationWedged";
    } catch (const SimulationWedged &w) {
        const std::string what = w.what();
        EXPECT_NE(what.find("no progress"), std::string::npos);
        EXPECT_NE(what.find("stuck completion"), std::string::npos);
    }
}

TEST(FaultRecovery, WatchdogStaysQuietWhileEventsFlow)
{
    Simulator sim;
    sim.setWatchdog(1000, true);
    // A heartbeat every 500 cycles is progress; the watchdog must
    // never fire even over many bounds' worth of time.
    std::function<void()> beat = [&] {
        sim.events().schedule(sim.now() + 500, beat, "heartbeat");
    };
    beat();
    EXPECT_NO_THROW(sim.run(20'000));
}

// A DMA request that hangs on every attempt: the engine waits out
// each timeout, backs off, retries, and after the budget fires the
// callback once, with TimedOut.
TEST(FaultRecovery, DmaTimeoutRetriesWithBackoffThenFailsOnce)
{
    check::Rig rig(check::rigConfig(ProtocolKind::Firefly));
    FaultConfig cfg;
    cfg.rates.deviceTimeout = 1.0;
    fault::FaultInjector inj(cfg);
    rig.dma.setFaultInjector(&inj);

    const Cycle issued = rig.sim.now();
    unsigned completions = 0;
    IoStatus status = IoStatus::Ok;
    Cycle completed = 0;
    rig.dma.readWords(0x1000, 2,
                       [&](IoStatus st, std::vector<Word> data) {
                           ++completions;
                           status = st;
                           completed = rig.sim.now();
                           EXPECT_TRUE(data.empty());
                       });
    rig.sim.run(50'000);

    EXPECT_EQ(completions, 1u);
    EXPECT_EQ(status, IoStatus::TimedOut);
    // Four 2,000-cycle timeouts, with backoffs of 500, 1,000 and
    // 2,000 cycles between them.
    EXPECT_EQ(completed - issued, 4 * 2000 + 500 + 1000 + 2000);
    EXPECT_EQ(inj.deviceTimeouts.value(), fault::kDeviceRetryBudget);
    EXPECT_EQ(inj.deviceRetries.value(), fault::kDeviceRetryBudget - 1);
    EXPECT_EQ(inj.deviceFailures.value(), 1u);
    EXPECT_EQ(rig.dma.requestCount.value(), 0u);
}

// A request that hangs once: the retry transfers the right words.
TEST(FaultRecovery, DmaRetryAfterOneTimeoutReadsTheWords)
{
    // A plan whose first device draw fires and whose second does not.
    FaultConfig cfg;
    cfg.rates.deviceTimeout = 0.5;
    for (;; ++cfg.seed) {
        fault::FaultPlan plan(cfg.seed, cfg.rates);
        if (plan.deviceTimeout() && !plan.deviceTimeout())
            break;
    }
    check::Rig rig(check::rigConfig(ProtocolKind::Firefly));
    rig.memory.write(0x1000, 7);
    rig.memory.write(0x1004, 9);
    fault::FaultInjector inj(cfg);
    rig.dma.setFaultInjector(&inj);

    IoStatus status = IoStatus::TimedOut;
    const std::vector<Word> got = rig.dmaRead(0x1000, 2, &status);
    EXPECT_EQ(status, IoStatus::Ok);
    EXPECT_EQ(got, (std::vector<Word>{7, 9}));
    EXPECT_EQ(inj.deviceTimeouts.value(), 1u);
    EXPECT_EQ(inj.deviceRetries.value(), 1u);
    EXPECT_EQ(inj.deviceFailures.value(), 0u);
    EXPECT_EQ(rig.dma.requestCount.value(), 1u);
}

// With every DMA request hung, each disk request fails once, with
// one warning, and the controller goes on to the next one.
TEST(FaultRecovery, DiskRequestFailsOnceAndTheNextOneRuns)
{
    HungDeviceRig rig;
    DiskController disk(rig.sim, rig.qbus, "disk0");
    std::vector<IoStatus> done;
    testing::internal::CaptureStderr();
    disk.read(10, 1, 0xa000, [&](IoStatus st) { done.push_back(st); });
    disk.write(20, 1, 0xb000, [&](IoStatus st) { done.push_back(st); });
    rig.sim.run(2'000'000);
    const std::string warnings = testing::internal::GetCapturedStderr();

    EXPECT_EQ(done, (std::vector<IoStatus>{IoStatus::TimedOut,
                                           IoStatus::TimedOut}));
    EXPECT_EQ(occurrences(warnings, "disk0: "), 2u) << warnings;
    EXPECT_EQ(occurrences(warnings, "read of 1 sectors at lba 10 "
                                    "failed after 4 attempts"),
              1u);
    EXPECT_EQ(occurrences(warnings, "write of 1 sectors at lba 20 "
                                    "failed after 4 attempts"),
              1u);
    EXPECT_EQ(disk.reads.value() + disk.writes.value(), 0u);
    EXPECT_EQ(rig.injector.deviceFailures.value(), 2u);
}

// The same for the Ethernet: each transmit fails once, warns once,
// and the next queued packet still gets its DMA fetch.
TEST(FaultRecovery, EthernetTransmitFailsOnceAndTheNextOneRuns)
{
    HungDeviceRig rig;
    EthernetController eth(rig.sim, rig.qbus, "eth0");
    std::vector<IoStatus> done;
    testing::internal::CaptureStderr();
    eth.transmit(0x8000, 64, [&](IoStatus st) { done.push_back(st); });
    eth.transmit(0x9000, 128, [&](IoStatus st) { done.push_back(st); });
    rig.sim.run(200'000);
    const std::string warnings = testing::internal::GetCapturedStderr();

    EXPECT_EQ(done, (std::vector<IoStatus>{IoStatus::TimedOut,
                                           IoStatus::TimedOut}));
    EXPECT_EQ(occurrences(warnings, "eth0: "), 2u) << warnings;
    EXPECT_EQ(occurrences(warnings, "transmit of 64 bytes failed after "
                                    "4 attempts"),
              1u);
    EXPECT_EQ(occurrences(warnings, "transmit of 128 bytes failed after "
                                    "4 attempts"),
              1u);
    EXPECT_EQ(eth.txPackets.value(), 0u);
    EXPECT_EQ(rig.injector.deviceFailures.value(), 2u);
}
