#include "cpu/vax_mix.hh"

namespace firefly
{

namespace
{

/** The deterministic floor of a mean; the rest is its chance. */
unsigned
floorOf(double mean)
{
    return static_cast<unsigned>(mean);
}

std::uint64_t
thresholdOf(double mean)
{
    return Rng::chanceThreshold(mean - floorOf(mean));
}

} // namespace

MixDraw::MixDraw(const VaxMix &mix)
    : floors{floorOf(mix.instrReads), floorOf(mix.dataReads),
             floorOf(mix.dataWrites)},
      thresholds{thresholdOf(mix.instrReads), thresholdOf(mix.dataReads),
                 thresholdOf(mix.dataWrites)}
{
}

InstrRefs
drawInstrRefs(const VaxMix &mix, Rng &rng)
{
    return MixDraw(mix).draw(rng);
}

} // namespace firefly
