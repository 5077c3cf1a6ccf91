/**
 * @file
 * Synthetic VAX reference stream with tunable locality and sharing.
 *
 * The paper's single-processor characterisation came from
 * trace-driven simulation (Zukowski); multiprocessor sharing was
 * "arbitrarily assumed" to be S = 0.1 of writes.  Those traces do not
 * survive, so this generator reproduces the published aggregates
 * instead:
 *
 *   - reference mix IR/DR/DW = .95/.78/.40 per instruction,
 *   - per-CPU miss rate M ~ 0.2 on a 16 KB direct-mapped cache with
 *     4-byte lines,
 *   - dirty-entry fraction D ~ 0.25,
 *   - fraction S of data writes directed at a shared region.
 *
 * The model: the I-stream fetches sequentially and branches with
 * probability 0.25 per instruction, mostly backwards into a small hot
 * loop region (temporal locality) and occasionally far (cold code).
 * Data accesses re-reference a recent-address window with probability
 * `dataReuseProb`, otherwise touch a fresh random word of the private
 * (or, for the sharing fraction, shared) region.
 * Defaults are calibrated by tests/synthetic_test.cc.
 */

#ifndef FIREFLY_CPU_SYNTHETIC_STREAM_HH
#define FIREFLY_CPU_SYNTHETIC_STREAM_HH

#include <vector>

#include "cpu/ref_source.hh"
#include "cpu/vax_mix.hh"
#include "sim/random.hh"

namespace firefly
{

/** Parameters of the synthetic workload. */
struct SyntheticConfig
{
    VaxMix mix{};

    /** Non-memory processor ticks per instruction.  Default derived
     *  from the MicroVAX: 11.9 TPI - 2.13 refs * 2 ticks = 7.64. */
    double computeTicksPerInstr = microVaxBaseTpi - 2.13 * hitTicks;

    // Memory layout (byte addresses, longword aligned); the shared
    // region starts at SyntheticStream::sharedBase.
    Addr codeBase = 0x0010'0000;
    static constexpr Addr codeBytes = 256 * 1024;
    Addr privateBase = 0x0020'0000;
    Addr privateBytes = 256 * 1024;
    /** Shared region size: small enough to stay resident in every
     *  cache, so writes to it genuinely hit shared lines. */
    Addr sharedBytes = 16 * 1024;

    /** Fraction of all data writes aimed at shared data (the paper's
     *  S = 0.1). */
    double writeSharedFrac = 0.1;
    /** Fraction of all data reads aimed at shared data. */
    double readSharedFrac = 0.05;

    /** Branches that stay within the current hot loop; the rest move
     *  the hot loop to cold code (working-set turnover). */
    double loopBranchFrac = 0.998;

    /** Probability a data read re-references a recent address. */
    double dataReuseProb = 0.95;
    /** Probability a data write re-references a recent address.
     *  Lower than the read locality: fresh write misses install
     *  clean lines (the longword optimisation), which keeps the
     *  dirty-entry fraction near the paper's D ~ 0.25. */
    double writeReuseProb = 0.55;
    /** Recent-address window size.  Sized so the data working set
     *  (~16 KB) strains the MicroVAX cache but fits the CVAX's. */
    unsigned reuseWindow = 2048;

    /** Instructions to run before halting (0 = endless). */
    std::uint64_t instructionLimit = 0;

    std::uint64_t seed = 1;
};

/** Generates the synthetic stream for one processor. */
class SyntheticStream : public RefSource
{
  public:
    explicit SyntheticStream(const SyntheticConfig &config);

    /** Base of the shared region every stream's shared accesses hit. */
    static constexpr Addr sharedBase = 0x0008'0000;

    CpuStep next() override;
    std::uint64_t instructionsCompleted() const override;

  private:
    void startInstruction();
    Addr pickDataAddr(bool is_write);
    Addr freshAddr(Addr base, Addr bytes);

    SyntheticConfig cfg;
    Rng rng;

    // The config's probabilities as Rng::chanceScaled thresholds.
    MixDraw mixDraw;
    std::uint64_t readSharedT, writeSharedT;
    std::uint64_t dataReuseT, writeReuseT;
    std::uint64_t sequentialT, branchT, loopBranchT;

    // I-stream state.
    Addr pc;        ///< next fetch address
    Addr loopStart; ///< base of the current hot loop

    // Recently used data addresses (temporal locality pool).
    std::vector<Addr> reuse;
    std::size_t reuseNext = 0;
    Addr lastFresh = 0;  ///< previous fresh data address (runs)

    // Steps of the current instruction, consumed in order from
    // `stepNext`; refilled only once all are consumed.
    std::vector<CpuStep> stepQueue;
    std::size_t stepNext = 0;
    double computeDebt = 0.0;
    std::uint64_t instructions = 0;
    Word writeSeq = 1;
};

} // namespace firefly

#endif // FIREFLY_CPU_SYNTHETIC_STREAM_HH
