#include "firefly/config.hh"

#include <mutex>

#include "sim/logging.hh"

namespace firefly
{

const char *
toString(MachineVersion version)
{
    switch (version) {
      case MachineVersion::MicroVax: return "MicroVAX";
      case MachineVersion::Cvax: return "CVAX";
    }
    return "?";
}

Addr
FireflyConfig::moduleBytes() const
{
    return version == MachineVersion::MicroVax ? 4u * 1024 * 1024
                                               : 32u * 1024 * 1024;
}

Cache::Geometry
FireflyConfig::effectiveGeometry() const
{
    if (cacheGeometry.cacheBytes != 0)
        return cacheGeometry;
    if (version == MachineVersion::MicroVax)
        return {16 * 1024, 4};   // 4096 four-byte lines
    return {64 * 1024, 4};       // 16384 four-byte lines
}

void
FireflyConfig::validate() const
{
    if (processors < 1 || processors > maxProcessors)
        fatal("Firefly needs 1-%u processors, got %u", maxProcessors,
              processors);
    if (processors > 7) {
        // Once per process: a sweep builds many such machines, and
        // its parallel points would otherwise make stderr depend on
        // --jobs.
        static std::once_flag warned;
        std::call_once(warned, [] {
            warn("more than seven processors exceed anything SRC "
                 "built (the bus saturates near nine)");
        });
    }

    if (!cacheNames.empty() && cacheNames.size() != processors) {
        fatal("%zu cache names for %u processors", cacheNames.size(),
              processors);
    }

    const Addr max_memory = version == MachineVersion::MicroVax
        ? 16u * 1024 * 1024    // 24-bit physical address
        : 128u * 1024 * 1024;  // four 32 MB modules
    if (memoryBytes == 0 || memoryBytes > max_memory) {
        fatal("%s Firefly supports at most %u MB of memory",
              toString(version), max_memory / (1024 * 1024));
    }

    if (version == MachineVersion::MicroVax && onChipCacheEnabled) {
        fatal("the MicroVAX 78032 has no on-chip cache");
    }
}

FireflyConfig
FireflyConfig::microVax(unsigned processors)
{
    FireflyConfig cfg;
    cfg.version = MachineVersion::MicroVax;
    cfg.processors = processors;
    cfg.memoryBytes = 16 * 1024 * 1024;
    cfg.onChipCacheEnabled = false;
    return cfg;
}

FireflyConfig
FireflyConfig::cvax(unsigned processors)
{
    FireflyConfig cfg;
    cfg.version = MachineVersion::Cvax;
    cfg.processors = processors;
    cfg.memoryBytes = 32 * 1024 * 1024;
    cfg.onChipCacheEnabled = true;
    return cfg;
}

} // namespace firefly
