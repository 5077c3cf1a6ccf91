#include "obs/trace.hh"

#include <cstdio>

#include "sim/stats.hh"

namespace firefly::obs
{

TraceSink::~TraceSink() = default;

void
TraceSink::begin(Cycle when, const char *category, std::string track,
                 std::string name, TraceEvent::Args args)
{
    event({when, EventKind::Begin, category, std::move(track),
           std::move(name), std::move(args)});
}

void
TraceSink::end(Cycle when, const char *category, std::string track,
               TraceEvent::Args args)
{
    event({when, EventKind::End, category, std::move(track), {},
           std::move(args)});
}

void
TraceSink::instant(Cycle when, const char *category, std::string track,
                   std::string name, TraceEvent::Args args)
{
    event({when, EventKind::Instant, category, std::move(track),
           std::move(name), std::move(args)});
}

void
TraceSink::counter(Cycle when, const char *category, std::string track,
                   std::string name, double value)
{
    event({when, EventKind::Counter, category, std::move(track),
           std::move(name), {{"value", statNumber(value)}}});
}

void
TeeSink::event(const TraceEvent &ev)
{
    for (auto *sink : sinks)
        sink->event(ev);
}

void
TeeSink::flush()
{
    for (auto *sink : sinks)
        sink->flush();
}

std::string
hexAddr(Addr addr)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%x", addr);
    return buf;
}

} // namespace firefly::obs
