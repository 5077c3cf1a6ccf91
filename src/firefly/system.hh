/**
 * @file
 * A complete simulated Firefly (paper Figure 1): processors with
 * snoopy caches on the MBus, storage modules, and an attachment
 * point for the QBus I/O world on the primary processor's cache.
 *
 * Workloads attach after construction: either the synthetic VAX
 * stream (one per processor, with per-processor private regions and
 * a common shared region) or externally owned RefSources (the Topaz
 * runtime uses this).  A machine with no workload attached is the
 * small machine check::Rig drives (check/rig.hh).
 */

#ifndef FIREFLY_FIREFLY_SYSTEM_HH
#define FIREFLY_FIREFLY_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "check/coherence_checker.hh"
#include "cpu/synthetic_stream.hh"
#include "cpu/trace_cpu.hh"
#include "firefly/config.hh"
#include "mbus/mbus.hh"
#include "mem/main_memory.hh"
#include "sim/simulator.hh"

namespace firefly
{

/** A whole machine. */
class FireflySystem
{
  public:
    explicit FireflySystem(const FireflyConfig &config);

    FireflySystem(const FireflySystem &) = delete;
    FireflySystem &operator=(const FireflySystem &) = delete;

    const FireflyConfig &config() const { return cfg; }

    // --- workload attachment -------------------------------------------
    /**
     * Give every processor a synthetic stream derived from `base`:
     * processor i gets its own code and private-data regions (and its
     * own seed); the shared region is common.
     */
    void attachSyntheticWorkload(const SyntheticConfig &base);

    /** Attach caller-owned sources, one per processor. */
    void attachSources(const std::vector<RefSource *> &sources);

    // --- running ---------------------------------------------------------
    /** Run for a simulated duration. */
    void run(double seconds);
    /** Run until every CPU halts (or the cycle limit is hit). */
    void runToCompletion(Cycle max_cycles = 500'000'000);
    bool allHalted() const;

    /**
     * Offline processor `i` mid-run: fence its CPU, run the machine
     * until the CPU has halted and its cache and the bus have drained,
     * then flush the cache's dirty lines to memory.  The rest of the
     * machine keeps running afterwards.  For Topaz workloads call
     * TopazRuntime::offlineCpu(i) first so the thread it was running
     * is requeued elsewhere.  Dies if the drain takes longer than
     * `max_wait` cycles.
     */
    void offlineProcessor(unsigned i, Cycle max_wait = 100'000);

    // --- structure ---------------------------------------------------------
    Simulator &simulator() { return sim; }
    MainMemory &memory() { return mem; }
    MBus &bus() { return *mbus; }
    unsigned processorCount() const { return caches.size(); }
    Cache &cache(unsigned i) { return *caches.at(i); }
    TraceCpu &cpu(unsigned i) { return *cpus.at(i); }
    /** The primary processor's cache: the DMA path into the machine. */
    Cache &ioCache() { return *caches.at(0); }
    OnChipCache *onChip(unsigned i) { return onchips.at(i).get(); }
    /** The coherence checker, if cfg.coherenceCheck enabled it. */
    check::CoherenceChecker *checker() { return coherenceChecker.get(); }
    /** The fault injector, if cfg.faults is active (else nullptr). */
    fault::FaultInjector *faultInjector() { return injector.get(); }

    // --- aggregate measurements (Table 2 quantities) --------------------
    double seconds() const { return sim.seconds(); }
    std::uint64_t totalCpuRefs() const;
    std::uint64_t totalCpuReads() const;
    std::uint64_t totalCpuWrites() const;
    double busLoad() const { return mbus->load(); }

    /** Render the Figure 1 block diagram for this configuration. */
    std::string topologyArt() const;

    StatGroup &stats() { return statGroup; }

  private:
    FireflyConfig cfg;
    Simulator sim;
    MainMemory mem;
    std::unique_ptr<MBus> mbus;
    std::vector<std::unique_ptr<Cache>> caches;
    std::vector<std::unique_ptr<OnChipCache>> onchips;
    std::vector<std::unique_ptr<SyntheticStream>> ownedStreams;
    std::vector<std::unique_ptr<TraceCpu>> cpus;
    std::unique_ptr<check::CoherenceChecker> coherenceChecker;
    std::unique_ptr<fault::FaultInjector> injector;
    StatGroup statGroup;
};

} // namespace firefly

#endif // FIREFLY_FIREFLY_SYSTEM_HH
