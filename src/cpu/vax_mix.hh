/**
 * @file
 * VAX architectural constants used throughout the paper's analysis.
 *
 * "Measurements made on the VAX [Emer & Clark] show that a typical
 * instruction does .95 instruction reads per instruction, .78 data
 * reads, and .40 data writes, for a total of 2.13 references per
 * instruction.  This is an architectural property valid across a
 * wide range of applications."
 *
 * Timing constants: the MicroVAX 78032 is an 11.9 tick-per-
 * instruction implementation with 200 ns ticks; the CVAX 78034 runs
 * 100 ns cycles and roughly half the CPI.
 */

#ifndef FIREFLY_CPU_VAX_MIX_HH
#define FIREFLY_CPU_VAX_MIX_HH

#include "sim/random.hh"

namespace firefly
{

/** Per-instruction reference rates (Emer & Clark). */
struct VaxMix
{
    double instrReads = 0.95;  ///< IR
    double dataReads = 0.78;   ///< DR
    double dataWrites = 0.40;  ///< DW

    double total() const { return instrReads + dataReads + dataWrites; }
};

/** Counts of each reference type for one instruction. */
struct InstrRefs
{
    unsigned instrReads = 0;
    unsigned dataReads = 0;
    unsigned dataWrites = 0;

    unsigned
    total() const
    {
        return instrReads + dataReads + dataWrites;
    }
};

/**
 * Draw the reference counts of one instruction so that the long-run
 * means match the mix (each count is Bernoulli(fraction) plus a
 * deterministic floor for rates above 1).
 */
InstrRefs drawInstrRefs(const VaxMix &mix, Rng &rng);

/** drawInstrRefs with the mix's floors and Rng::chance thresholds
 *  computed once, for generators that draw every instruction. */
class MixDraw
{
  public:
    explicit MixDraw(const VaxMix &mix);

    /** Same draws, same results as drawInstrRefs(mix, rng). */
    InstrRefs
    draw(Rng &rng) const
    {
        InstrRefs refs = floors;
        refs.instrReads += rng.chanceScaled(thresholds[0]);
        refs.dataReads += rng.chanceScaled(thresholds[1]);
        refs.dataWrites += rng.chanceScaled(thresholds[2]);
        return refs;
    }

  private:
    InstrRefs floors;
    std::uint64_t thresholds[3];
};

/** MicroVAX 78032: base ticks per instruction with no-wait memory. */
constexpr double microVaxBaseTpi = 11.9;

/** MicroVAX tick length in 100 ns bus cycles (200 ns ticks). */
constexpr unsigned microVaxCyclesPerTick = 2;

/**
 * CVAX 78034: base ticks (100 ns) per instruction.  Chosen so the
 * chip's raw speed advantage over the MicroVAX is ~2.5x (the paper
 * reports 2.5-3.2x in other systems and 2.0-2.5x in the Firefly
 * after bus/cache effects).
 */
constexpr double cvaxBaseTpi = 9.5;

/** CVAX tick length in bus cycles (100 ns ticks). */
constexpr unsigned cvaxCyclesPerTick = 1;

/** Ticks a cache hit occupies the processor memory interface.
 *  MicroVAX: 400 ns memory cycle = 2 ticks; CVAX: 200 ns = 2 ticks. */
constexpr unsigned hitTicks = 2;

} // namespace firefly

#endif // FIREFLY_CPU_VAX_MIX_HH
