/**
 * @file
 * Shared helpers for driving the simulated machine from tests.
 */

#ifndef FIREFLY_TESTS_TEST_UTIL_HH
#define FIREFLY_TESTS_TEST_UTIL_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/protocol.hh"
#include "check/coherence_checker.hh"
#include "mbus/mbus.hh"
#include "mem/main_memory.hh"
#include "sim/simulator.hh"

namespace firefly::test
{

/**
 * A small machine - memory, bus, N caches - with blocking access
 * helpers that advance simulated time until each access completes.
 * This stands in for the processors when a test wants precise control
 * over the reference sequence.
 */
struct TestRig
{
    Simulator sim;
    MainMemory memory;
    std::unique_ptr<MBus> bus;
    std::vector<std::unique_ptr<Cache>> caches;

    /** `table` overrides the table the caches run; nullptr =
     *  makeProtocol(kind). */
    explicit TestRig(ProtocolKind kind, unsigned ncaches = 2,
                     Cache::Geometry geom = {},
                     const ProtocolTable *table = nullptr)
    {
        memory.addModule(4 * 1024 * 1024);
        bus = std::make_unique<MBus>(sim, memory);
        for (unsigned i = 0; i < ncaches; ++i) {
            caches.push_back(std::make_unique<Cache>(
                sim, *bus, table ? *table : makeProtocol(kind), geom,
                "cache" + std::to_string(i)));
        }
    }

    /** Issue one access and run the clock until it completes. */
    Word
    access(unsigned cache_idx, const MemRef &ref)
    {
        bool done = false;
        Word data = 0;
        for (;;) {
            auto result = caches[cache_idx]->cpuAccess(
                ref, [&](Word w) { done = true; data = w; });
            if (result.outcome == Cache::AccessOutcome::Hit)
                return result.data;
            if (result.outcome == Cache::AccessOutcome::Pending)
                break;
            sim.run(1);  // tag store busy: retry next cycle
        }
        while (!done)
            sim.run(1);
        return data;
    }

    Word
    read(unsigned cache_idx, Addr addr)
    {
        return access(cache_idx, {addr, RefType::DataRead, 0});
    }

    void
    write(unsigned cache_idx, Addr addr, Word value)
    {
        access(cache_idx, {addr, RefType::DataWrite, value});
    }

    LineState
    state(unsigned cache_idx, Addr addr) const
    {
        if (!caches[cache_idx]->holds(addr))
            return LineState::Invalid;
        return caches[cache_idx]->lineAt(addr).state;
    }
};

/**
 * A TestRig with the coherence checker (src/check/) attached and
 * configured to throw CoherenceViolation, so any incoherence the
 * test provokes fails loudly with a line-level diagnostic.
 */
struct CheckedRig : TestRig
{
    std::unique_ptr<check::CoherenceChecker> checker;

    explicit CheckedRig(ProtocolKind kind, unsigned ncaches = 2,
                        Cache::Geometry geom = {},
                        const ProtocolTable *table = nullptr,
                        check::CheckerConfig ccfg = {})
        : TestRig(kind, ncaches, geom, table)
    {
        ccfg.throwOnViolation = true;
        checker = std::make_unique<check::CoherenceChecker>(
            sim, *bus, memory, kind, ccfg);
        for (auto &cache : caches)
            checker->watch(*cache);
    }
};

} // namespace firefly::test

#endif // FIREFLY_TESTS_TEST_UTIL_HH
