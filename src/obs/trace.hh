/**
 * @file
 * Structured event tracing: the flight recorder's front end.
 *
 * Components emit typed, timestamped TraceEvents into a TraceSink.
 * Exactly one (possibly compound) sink is attached per *thread*;
 * emission sites are written as
 *
 *     if (auto *ts = obs::traceSink())
 *         ts->instant(sim.now(), obs::kCatMBus, "mbus", "MShared");
 *
 * so that with no sink attached the whole site compiles to a single
 * inlined null-check and none of the event's strings are ever built.
 * Sinks are pure observers - they receive copies of simulator state
 * and can feed nothing back - so attaching one cannot perturb
 * simulated behaviour (the determinism regression runs with and
 * without a sink and must produce identical statistics).
 *
 * The sink pointer (and the published timestamp below) is
 * thread_local: each simulation thread observes only the sink it
 * attached itself, so independent simulations on harness worker
 * threads (src/harness/) neither share nor race on observability
 * state.  A freshly spawned worker starts with no sink - the
 * zero-cost case - and sink objects themselves are not thread-safe,
 * so a sink must only ever be attached on the thread that uses it.
 *
 * Event categories double as the flag names a text sink
 * (obs/text_trace.hh) is built with; the Chrome sink records them as
 * "cat".
 *
 * Components that have no Simulator reference (the Topaz scheduler)
 * timestamp events with obs::traceNow(), which the Simulator
 * publishes at the start of every cycle.
 */

#ifndef FIREFLY_OBS_TRACE_HH
#define FIREFLY_OBS_TRACE_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace firefly::obs
{

/** Event categories == text-sink flag names (obs/text_trace.hh). */
inline constexpr const char *kCatMBus = "MBus";
inline constexpr const char *kCatCache = "Cache";
inline constexpr const char *kCatCpu = "Cpu";
inline constexpr const char *kCatDma = "Dma";
inline constexpr const char *kCatSched = "Sched";
inline constexpr const char *kCatRpc = "Rpc";
inline constexpr const char *kCatCheck = "Check";
inline constexpr const char *kCatFault = "Fault";

/** Every category, in the order usage messages list them. */
inline constexpr const char *kCategories[] = {
    kCatMBus,  kCatCache, kCatCpu,   kCatDma,
    kCatSched, kCatRpc,   kCatCheck, kCatFault};

/** Event shape, following the Chrome trace-event phases. */
enum class EventKind : char
{
    Begin = 'B',    ///< start of a duration slice on a track
    End = 'E',      ///< end of the innermost open slice on a track
    Instant = 'i',  ///< a point event
};

/** One structured event. */
struct TraceEvent
{
    using Args = std::vector<std::pair<std::string, std::string>>;

    Cycle when = 0;              ///< bus cycle of the event
    EventKind kind = EventKind::Instant;
    const char *category = "";   ///< one of kCategories
    std::string track;           ///< one timeline per component
    std::string name;            ///< what happened
    Args args;                   ///< key/value detail
};

/** Where events go.  Implementations must not mutate simulator state. */
class TraceSink
{
  public:
    virtual ~TraceSink();

    virtual void event(const TraceEvent &ev) = 0;
    virtual void flush() {}

    // Convenience emitters (build the TraceEvent and forward it).
    void begin(Cycle when, const char *category, std::string track,
               std::string name, TraceEvent::Args args = {});
    void end(Cycle when, const char *category, std::string track,
             std::string name = {});
    void instant(Cycle when, const char *category, std::string track,
                 std::string name, TraceEvent::Args args = {});
};

/** Broadcasts every event to several sinks (e.g. Chrome + text). */
class TeeSink : public TraceSink
{
  public:
    void add(TraceSink *sink) { sinks.push_back(sink); }

    void event(const TraceEvent &ev) override;
    void flush() override;

  private:
    std::vector<TraceSink *> sinks;
};

namespace detail
{
inline thread_local TraceSink *g_sink = nullptr;
inline thread_local Cycle g_now = 0;
} // namespace detail

/** This thread's attached sink, or nullptr (the zero-cost case). */
inline TraceSink *
traceSink()
{
    return detail::g_sink;
}

/** Attach (or with nullptr detach) this thread's sink. */
inline void
setTraceSink(TraceSink *sink)
{
    detail::g_sink = sink;
}

/** Timestamp source for components without a Simulator reference. */
inline Cycle
traceNow()
{
    return detail::g_now;
}

/** Called by the Simulator at the start of every cycle. */
inline void
publishTraceNow(Cycle now)
{
    detail::g_now = now;
}

/** RAII attachment; restores the previous sink on destruction. */
class ScopedTraceSink
{
  public:
    explicit ScopedTraceSink(TraceSink *sink) : prev(traceSink())
    {
        setTraceSink(sink);
    }

    ~ScopedTraceSink()
    {
        if (TraceSink *s = traceSink())
            s->flush();
        setTraceSink(prev);
    }

    ScopedTraceSink(const ScopedTraceSink &) = delete;
    ScopedTraceSink &operator=(const ScopedTraceSink &) = delete;

  private:
    TraceSink *prev;
};

/** Render an address the way every sink and test expects ("0x1a4"). */
std::string hexAddr(Addr addr);

} // namespace firefly::obs

#endif // FIREFLY_OBS_TRACE_HH
