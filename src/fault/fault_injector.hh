/**
 * @file
 * The fault-injection subsystem.
 *
 * One FaultInjector per simulated machine owns the FaultPlan, the
 * device recovery knobs (timeout, backoff), the fault/recovery
 * statistics, and the machine-check path.  Components that can take
 * faults (MBus, MemoryModule, DmaEngine) each hold an optional
 * pointer to the injector; with none attached every fault site is a
 * single null check and behaviour is bit-identical to a fault-free
 * build.
 *
 * Recoverable faults are handled where they land (the bus retries a
 * NACKed transaction, devices retry timed-out DMA) and every attempt
 * and recovery is visible in the flight recorder under the "Fault"
 * category.  Unrecoverable faults - a double-bit ECC error, a retry
 * budget exhausted - funnel through machineCheck(): the diagnostic is
 * deterministic, the machine-check interrupt hook fires (wired to
 * mbus/interrupts by FireflySystem), and the run ends with either a
 * MachineCheck exception (tests) or a fatal diagnostic, never a hang
 * or silent corruption.
 */

#ifndef FIREFLY_FAULT_FAULT_INJECTOR_HH
#define FIREFLY_FAULT_FAULT_INJECTOR_HH

#include <functional>
#include <stdexcept>
#include <string>

#include "fault/fault_plan.hh"
#include "sim/stats.hh"

namespace firefly::fault
{

// --- recovery constants ----------------------------------------------
/** MBus parity: attempts (including the first) before a machine
 *  check. */
inline constexpr unsigned kParityRetryBudget = 8;
/** Backoff before parity retry k is min(base << (k-1), cap) cycles. */
inline constexpr Cycle kParityBackoffBase = 2;
inline constexpr Cycle kParityBackoffCap = 64;
/** Device transfer attempts (including the first) before giving up. */
inline constexpr unsigned kDeviceRetryBudget = 4;
/** A machine with faults armed aborts if no component makes progress
 *  for this many cycles (the simulator's wedge watchdog). */
inline constexpr Cycle kWatchdogCycles = 1'000'000;

static_assert(kParityRetryBudget > 0 && kDeviceRetryBudget > 0,
              "fault retry budgets must allow at least one attempt");

/** Fault campaign configuration: what fires and how recovery runs. */
struct FaultConfig
{
    /** Master switch; a config with rates but enabled=false is inert
     *  (active() is what components should test). */
    bool enabled = false;
    FaultRates rates;
    std::uint64_t seed = 1;

    // --- device timeout recovery ------------------------------------
    /** Cycles a timed-out DMA request burns before failing. */
    Cycle deviceTimeoutCycles = 2000;
    /** Backoff before device retry k is min(base << (k-1), cap). */
    Cycle deviceBackoffBase = 500;
    Cycle deviceBackoffCap = 8000;

    /** Throw MachineCheck instead of dying; tests use this to assert
     *  on the diagnostic. */
    bool throwOnMachineCheck = false;

    bool active() const { return enabled || rates.any(); }
};

/** An unrecoverable fault, surfaced as a typed exception. */
class MachineCheck : public std::runtime_error
{
  public:
    MachineCheck(std::string unit, std::string diagnostic)
        : std::runtime_error("machine check [" + unit + "]: " +
                             diagnostic),
          unit(std::move(unit)), diagnostic(std::move(diagnostic))
    {
    }

    const std::string unit;
    const std::string diagnostic;
};

/** Owns the plan, the recovery knobs, and the machine-check path. */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &config);

    const FaultConfig &config() const { return cfg; }
    FaultPlan &faultPlan() { return plan; }

    /** Backoff before parity retry attempt k (k >= 1). */
    Cycle parityBackoff(unsigned attempt) const;
    /** Backoff before device transfer retry attempt k (k >= 1). */
    Cycle deviceBackoff(unsigned attempt) const;

    /**
     * Delivered synchronously before the run dies; FireflySystem
     * wires this to InterruptController::raiseMachineCheck.
     */
    using MachineCheckHook =
        std::function<void(const std::string &unit,
                           const std::string &diagnostic)>;
    void setMachineCheckHook(MachineCheckHook hook)
    {
        mcHook = std::move(hook);
    }

    /**
     * An unrecoverable fault: emit the flight-recorder event, deliver
     * the machine-check interrupt, then throw MachineCheck (if
     * configured) or die with the deterministic diagnostic.
     */
    [[noreturn]] void machineCheck(const std::string &unit,
                                   const std::string &diagnostic);

    StatGroup &stats() { return statGroup; }

    // Fault and recovery counters, public like every component's.
    Counter parityErrors;     ///< bus attempts NACKed for parity
    Counter parityRetries;    ///< retries scheduled after a NACK
    Counter parityRecovered;  ///< transactions completed after >=1 NACK
    Counter eccCorrected;     ///< single-bit reads corrected+scrubbed
    Counter eccUncorrectable; ///< double-bit reads (machine check)
    Counter deviceTimeouts;   ///< DMA requests that timed out
    Counter deviceRetries;    ///< device-level transfer retries
    Counter deviceFailures;   ///< transfers failed after the budget
    Counter machineChecks;    ///< unrecoverable faults raised

  private:
    FaultConfig cfg;
    FaultPlan plan;
    MachineCheckHook mcHook;
    StatGroup statGroup;
};

} // namespace firefly::fault

#endif // FIREFLY_FAULT_FAULT_INJECTOR_HH
