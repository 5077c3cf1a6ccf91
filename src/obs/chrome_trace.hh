/**
 * @file
 * Chrome trace-event JSON sink.
 *
 * Writes the attached event stream in the Chrome/Perfetto trace-event
 * JSON array format: open the file at https://ui.perfetto.dev (or
 * chrome://tracing) and every component's track - one per CPU, cache,
 * the bus, each device - renders as its own timeline with duration
 * slices (B/E pairs) and instant markers.
 *
 * Timestamps: the trace-event "ts" field is microseconds; one MBus
 * cycle is 100 ns, so ts = cycle / 10.  Events must be written in
 * nondecreasing timestamp order per track; simulation time only moves
 * forward, so that holds naturally within one run.  When several
 * simulated machines share one sink (a bench sweeping configurations)
 * each new machine's cycle counter restarts at zero; the sink detects
 * time going backwards and concatenates the runs on the output
 * timeline instead of interleaving them.
 */

#ifndef FIREFLY_OBS_CHROME_TRACE_HH
#define FIREFLY_OBS_CHROME_TRACE_HH

#include <fstream>
#include <map>
#include <ostream>
#include <string>

#include "obs/trace.hh"

namespace firefly::obs
{

/** Streams events to a trace-event JSON array. */
class ChromeTraceSink : public TraceSink
{
  public:
    /** Write to a caller-owned stream (tests). */
    explicit ChromeTraceSink(std::ostream &os);
    /** Write to a file; fatal() if it cannot be opened. */
    explicit ChromeTraceSink(const std::string &path);
    ~ChromeTraceSink() override;

    void event(const TraceEvent &ev) override;
    void flush() override;

    /** Finalise the JSON array.  Implied by destruction. */
    void close();

  private:
    unsigned trackId(const std::string &track);
    void writeRecord(const TraceEvent &ev, Cycle shifted);

    std::ofstream owned;
    std::ostream *out;
    bool closed = false;
    std::uint64_t count = 0;

    /** track name -> trace-event tid, in order of first appearance. */
    std::map<std::string, unsigned> tracks;

    /** Concatenation of multiple simulator lifetimes (see above). */
    Cycle offset = 0;
    Cycle lastWhen = 0;
};

} // namespace firefly::obs

#endif // FIREFLY_OBS_CHROME_TRACE_HH
