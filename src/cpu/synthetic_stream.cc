#include "cpu/synthetic_stream.hh"

#include "sim/logging.hh"

namespace firefly
{

namespace
{

/** Per-instruction branch probability (ends a sequential run). */
constexpr double kBranchProb = 0.25;
/** Hot loop length in instructions. */
constexpr unsigned kLoopWords = 96;
static_assert(SyntheticConfig::codeBytes > 4 * kLoopWords,
              "a far branch needs room for a whole hot loop");
/** Probability a *fresh* data access continues sequentially from the
 *  previous fresh one (array walks, stack frames - the spatial
 *  locality footnote 4 says a larger line would have exploited). */
constexpr double kDataSequentialProb = 0.7;

} // namespace

SyntheticStream::SyntheticStream(const SyntheticConfig &config)
    : cfg(config), rng(config.seed), mixDraw(config.mix),
      readSharedT(Rng::chanceThreshold(config.readSharedFrac)),
      writeSharedT(Rng::chanceThreshold(config.writeSharedFrac)),
      dataReuseT(Rng::chanceThreshold(config.dataReuseProb)),
      writeReuseT(Rng::chanceThreshold(config.writeReuseProb)),
      sequentialT(Rng::chanceThreshold(kDataSequentialProb)),
      branchT(Rng::chanceThreshold(kBranchProb)),
      loopBranchT(Rng::chanceThreshold(config.loopBranchFrac))
{
    if (cfg.privateBytes < 4 || cfg.sharedBytes < 4)
        fatal("synthetic regions must be non-empty");
    pc = cfg.codeBase;
    loopStart = cfg.codeBase;
    reuse.reserve(cfg.reuseWindow);
}

std::uint64_t
SyntheticStream::instructionsCompleted() const
{
    return instructions;
}

Addr
SyntheticStream::freshAddr(Addr base, Addr bytes)
{
    return base + 4 * static_cast<Addr>(rng.below(bytes / 4));
}

Addr
SyntheticStream::pickDataAddr(bool is_write)
{
    // The sharing fractions apply to the whole access stream (the
    // paper's S is "a fraction S = 0.1 of the processor's writes are
    // to shared data"), so check them before the locality model.
    if (rng.chanceScaled(is_write ? writeSharedT : readSharedT))
        return freshAddr(sharedBase, cfg.sharedBytes);

    // Temporal locality: usually re-touch something recent.
    if (!reuse.empty() &&
        rng.chanceScaled(is_write ? writeReuseT : dataReuseT)) {
        return reuse[rng.below(reuse.size())];
    }

    Addr addr;
    if (lastFresh != 0 && rng.chanceScaled(sequentialT) &&
        lastFresh + 4 < cfg.privateBase + cfg.privateBytes) {
        addr = lastFresh + 4;  // sequential run through private data
        lastFresh = addr;
    } else {
        addr = freshAddr(cfg.privateBase, cfg.privateBytes);
        lastFresh = addr;
    }

    if (reuse.size() < cfg.reuseWindow) {
        reuse.push_back(addr);
    } else {
        reuse[reuseNext] = addr;
        reuseNext = (reuseNext + 1) % reuse.size();
    }
    return addr;
}

void
SyntheticStream::startInstruction()
{
    ++instructions;
    const InstrRefs refs = mixDraw.draw(rng);

    // Instruction fetches: sequential until a branch.
    for (unsigned i = 0; i < refs.instrReads; ++i) {
        stepQueue.push_back(
            CpuStep::makeRef({pc, RefType::InstrRead, 0}));
        pc += 4;
        if (pc >= cfg.codeBase + cfg.codeBytes)
            pc = cfg.codeBase;
    }
    if (rng.chanceScaled(branchT)) {
        if (rng.chanceScaled(loopBranchT)) {
            // Loop back within the hot region.
            pc = loopStart +
                 4 * static_cast<Addr>(rng.below(kLoopWords));
        } else {
            // Far branch: move the hot loop somewhere cold.
            loopStart = freshAddr(cfg.codeBase,
                                  cfg.codeBytes - 4 * kLoopWords);
            loopStart -= loopStart % 4;
            pc = loopStart;
        }
    }

    // Data references.
    for (unsigned i = 0; i < refs.dataReads; ++i) {
        stepQueue.push_back(
            CpuStep::makeRef({pickDataAddr(false), RefType::DataRead, 0}));
    }
    for (unsigned i = 0; i < refs.dataWrites; ++i) {
        stepQueue.push_back(CpuStep::makeRef(
            {pickDataAddr(true), RefType::DataWrite, writeSeq++}));
    }

    // Non-memory compute time, dithered to hit the fractional mean.
    computeDebt += cfg.computeTicksPerInstr;
    const auto ticks = static_cast<std::uint32_t>(computeDebt);
    computeDebt -= ticks;
    if (ticks > 0)
        stepQueue.push_back(CpuStep::makeCompute(ticks));
}

CpuStep
SyntheticStream::next()
{
    while (stepNext == stepQueue.size()) {
        if (cfg.instructionLimit != 0 &&
            instructions >= cfg.instructionLimit) {
            return CpuStep::makeHalt();
        }
        stepQueue.clear();
        stepNext = 0;
        startInstruction();
    }
    return stepQueue[stepNext++];
}

} // namespace firefly
