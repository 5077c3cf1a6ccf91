#include "obs/chrome_trace.hh"

#include <cinttypes>
#include <cstdio>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace firefly::obs
{

namespace
{

using firefly::jsonEscape;

/** One cycle is 100 ns = 0.1 us; render "ts" exactly as cycles/10. */
std::string
microseconds(Cycle cycles)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%" PRIu64, cycles / 10,
                  cycles % 10);
    return buf;
}

} // namespace

ChromeTraceSink::ChromeTraceSink(std::ostream &os) : out(&os)
{
    *out << "[\n";
}

ChromeTraceSink::ChromeTraceSink(const std::string &path)
    : owned(path), out(&owned)
{
    if (!owned)
        fatal("cannot open trace output file '%s'", path.c_str());
    *out << "[\n";
}

ChromeTraceSink::~ChromeTraceSink()
{
    close();
}

unsigned
ChromeTraceSink::trackId(const std::string &track)
{
    const auto it = tracks.find(track);
    if (it != tracks.end())
        return it->second;
    const unsigned tid = tracks.size();
    tracks.emplace(track, tid);
    // Name the track so Perfetto shows "cache0" instead of a number.
    if (count++)
        *out << ",\n";
    *out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,"
         << "\"pid\":0,\"tid\":" << tid << ",\"args\":{\"name\":\""
         << jsonEscape(track) << "\"}}";
    return tid;
}

void
ChromeTraceSink::event(const TraceEvent &ev)
{
    if (closed)
        return;
    // A new simulated machine restarts its clock at zero; append its
    // events after everything already written so per-track timestamps
    // stay nondecreasing.
    if (ev.when + offset < lastWhen)
        offset = lastWhen - ev.when;
    const Cycle shifted = ev.when + offset;
    lastWhen = shifted;
    writeRecord(ev, shifted);
}

void
ChromeTraceSink::writeRecord(const TraceEvent &ev, Cycle shifted)
{
    const unsigned tid = trackId(ev.track);
    if (count++)
        *out << ",\n";
    *out << "{\"name\":\"" << jsonEscape(ev.name) << "\",\"cat\":\""
         << jsonEscape(ev.category) << "\",\"ph\":\""
         << static_cast<char>(ev.kind) << "\",\"ts\":"
         << microseconds(shifted) << ",\"pid\":0,\"tid\":" << tid;
    if (ev.kind == EventKind::Instant)
        *out << ",\"s\":\"t\"";  // thread-scoped instant
    if (!ev.args.empty()) {
        *out << ",\"args\":{";
        bool first = true;
        for (const auto &[key, value] : ev.args) {
            if (!first)
                *out << ",";
            first = false;
            *out << "\"" << jsonEscape(key) << "\":";
            // A counter's values are numbers; every other arg is text.
            if (ev.kind == EventKind::Counter)
                *out << value;
            else
                *out << "\"" << jsonEscape(value) << "\"";
        }
        *out << "}";
    }
    *out << "}";
}

void
ChromeTraceSink::flush()
{
    out->flush();
}

void
ChromeTraceSink::close()
{
    if (closed)
        return;
    closed = true;
    *out << "\n]\n";
    out->flush();
}

} // namespace firefly::obs
