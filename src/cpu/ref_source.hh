/**
 * @file
 * The interface between workload generators and the CPU timing model.
 *
 * A RefSource produces the architectural activity of a program: a
 * sequence of memory references (the VAX reference stream) separated
 * by compute time.  TraceCpu consumes steps and charges the timing
 * model (hit latency, miss latency via the cache/bus, compute ticks).
 */

#ifndef FIREFLY_CPU_REF_SOURCE_HH
#define FIREFLY_CPU_REF_SOURCE_HH

#include <cstdint>

#include "cache/mem_ref.hh"
#include "sim/types.hh"

namespace firefly
{

/** One step of processor activity. */
struct CpuStep
{
    enum class Kind : std::uint8_t
    {
        Ref,      ///< a memory reference
        Compute,  ///< busy for `ticks` processor ticks, no memory
        Halt,     ///< the program is finished
    };

    Kind kind = Kind::Halt;
    MemRef ref{};
    std::uint32_t ticks = 0;

    static CpuStep
    makeRef(const MemRef &r)
    {
        CpuStep s;
        s.kind = Kind::Ref;
        s.ref = r;
        return s;
    }

    static CpuStep
    makeCompute(std::uint32_t ticks)
    {
        CpuStep s;
        s.kind = Kind::Compute;
        s.ticks = ticks;
        return s;
    }

    static CpuStep
    makeHalt()
    {
        return CpuStep{};
    }
};

/** Produces the activity stream of one processor. */
class RefSource
{
  public:
    virtual ~RefSource() = default;

    /** Next step.  Called again after Halt it must keep saying Halt. */
    virtual CpuStep next() = 0;

    /**
     * A previously issued reference completed; `data` is the value
     * actually read from the coherent memory system (0 for writes).
     * Lets a workload perform real read-modify-write sequences (the
     * Topaz runtime's lock-protected counters use this).
     */
    virtual void
    onRefCompleted(const MemRef &ref, Word data)
    {
        (void)ref;
        (void)data;
    }

    /** Instructions completed so far (for TPI accounting). */
    virtual std::uint64_t instructionsCompleted() const { return 0; }
};

} // namespace firefly

#endif // FIREFLY_CPU_REF_SOURCE_HH
