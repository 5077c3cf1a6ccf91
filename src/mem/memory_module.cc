#include "mem/memory_module.hh"

#include "fault/fault_injector.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace firefly
{

MemoryModule::MemoryModule(std::string name, Addr base, Addr size_bytes)
    : _base(base), _sizeBytes(size_bytes),
      storage(size_bytes / bytesPerWord), statGroup(std::move(name))
{
    if (base % bytesPerWord != 0 || size_bytes % bytesPerWord != 0)
        fatal("memory module must be longword aligned");
    statGroup.addCounter(&readCount, "reads",
                         "longword reads served by this module");
    statGroup.addCounter(&writeCount, "writes",
                         "longword writes captured by this module");
}

void
MemoryModule::outside(Addr byte_addr) const
{
    panic("address 0x%x outside module at 0x%x", byte_addr, _base);
}

Word
MemoryModule::read(Addr byte_addr)
{
    ++readCount;
    if (injector) {
        using Ecc = fault::FaultPlan::EccOutcome;
        switch (injector->faultPlan().eccOnRead()) {
          case Ecc::Ok:
            break;
          case Ecc::Corrected:
            // Single-bit flip: the ECC logic corrects the word on
            // the way out and scrubs the array, so the flip never
            // becomes architecturally visible - only logged.
            ++injector->eccCorrected;
            if (auto *ts = obs::traceSink()) {
                ts->instant(obs::traceNow(), obs::kCatFault,
                            statGroup.name(), "ecc-corrected",
                            {{"addr", obs::hexAddr(byte_addr)}});
            }
            break;
          case Ecc::Uncorrectable:
            ++injector->eccUncorrectable;
            injector->machineCheck(
                statGroup.name(),
                "uncorrectable (double-bit) ECC error reading " +
                    obs::hexAddr(byte_addr));
        }
    }
    return storage.read(toWordIndex(byte_addr));
}

void
MemoryModule::write(Addr byte_addr, Word value)
{
    ++writeCount;
    storage.write(toWordIndex(byte_addr), value);
}

} // namespace firefly
