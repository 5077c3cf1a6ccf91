/**
 * @file
 * Human-readable text sink, filtered by category.
 *
 * The sink is built with the categories to print (the flags a bench
 * takes from --debug-flags, see bench/bench_util.hh) and drops every
 * other event.  Output looks like
 *
 *     [Cache] 1204 cache0: line 0x1f40 Shared->Dirty (write-hit)
 *
 * i.e. flag, cycle, track, event, detail - greppable and diffable.
 */

#ifndef FIREFLY_OBS_TEXT_TRACE_HH
#define FIREFLY_OBS_TEXT_TRACE_HH

#include <iostream>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace firefly::obs
{

/** The nonempty names of a comma-separated flag list, in order
 *  (",MBus,,Cache," gives MBus and Cache). */
std::vector<std::string> splitFlags(const std::string &list);

/** Prints the events of its categories as text lines. */
class TextTraceSink : public TraceSink
{
  public:
    /** Print events whose category is one of `flags` to `os`. */
    explicit TextTraceSink(std::vector<std::string> flags,
                           std::ostream &os = std::cerr);

    void event(const TraceEvent &ev) override;
    void flush() override;

    std::uint64_t linesPrinted() const { return lines; }

  private:
    std::vector<std::string> flags;
    std::ostream &out;
    std::uint64_t lines = 0;
};

} // namespace firefly::obs

#endif // FIREFLY_OBS_TEXT_TRACE_HH
