#include "fault/fault_injector.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly::fault
{

FaultInjector::FaultInjector(const FaultConfig &config)
    : cfg(config), plan(config.seed, config.rates), statGroup("faults")
{
    statGroup.addCounter(&parityErrors, "parity_errors",
                         "bus transaction attempts NACKed for parity");
    statGroup.addCounter(&parityRetries, "parity_retries",
                         "bus retries scheduled after a parity NACK");
    statGroup.addCounter(&parityRecovered, "parity_recovered",
                         "transactions completed after >=1 NACK");
    statGroup.addCounter(&eccCorrected, "ecc_corrected",
                         "single-bit memory errors corrected on read");
    statGroup.addCounter(&eccUncorrectable, "ecc_uncorrectable",
                         "double-bit memory errors detected");
    statGroup.addCounter(&deviceTimeouts, "device_timeouts",
                         "DMA requests that timed out");
    statGroup.addCounter(&deviceRetries, "device_retries",
                         "device transfer retries after a timeout");
    statGroup.addCounter(&deviceFailures, "device_failures",
                         "transfers failed after the retry budget");
    statGroup.addCounter(&machineChecks, "machine_checks",
                         "unrecoverable faults raised");
}

Cycle
FaultInjector::parityBackoff(unsigned attempt) const
{
    if (attempt == 0)
        return 0;
    const unsigned shift = std::min(attempt - 1, 30u);
    return std::min<Cycle>(kParityBackoffBase << shift,
                           kParityBackoffCap);
}

Cycle
FaultInjector::deviceBackoff(unsigned attempt) const
{
    if (attempt == 0)
        return 0;
    const unsigned shift = std::min(attempt - 1, 30u);
    return std::min<Cycle>(cfg.deviceBackoffBase << shift,
                           cfg.deviceBackoffCap);
}

void
FaultInjector::machineCheck(const std::string &unit,
                            const std::string &diagnostic)
{
    ++machineChecks;
    if (auto *ts = obs::traceSink()) {
        ts->instant(obs::traceNow(), obs::kCatFault, "faults",
                    "machine-check",
                    {{"unit", unit}, {"diag", diagnostic}});
    }
    if (mcHook)
        mcHook(unit, diagnostic);
    if (cfg.throwOnMachineCheck)
        throw MachineCheck(unit, diagnostic);
    fatal("machine check [%s]: %s", unit.c_str(), diagnostic.c_str());
}

} // namespace firefly::fault
