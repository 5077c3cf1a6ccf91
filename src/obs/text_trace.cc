#include "obs/text_trace.hh"

#include <algorithm>
#include <sstream>

namespace firefly::obs
{

std::vector<std::string>
splitFlags(const std::string &list)
{
    std::vector<std::string> names;
    std::istringstream in(list);
    for (std::string name; std::getline(in, name, ',');) {
        if (!name.empty())
            names.push_back(name);
    }
    return names;
}

TextTraceSink::TextTraceSink(std::vector<std::string> flags,
                             std::ostream &os)
    : flags(std::move(flags)), out(os)
{
}

void
TextTraceSink::event(const TraceEvent &ev)
{
    if (std::find(flags.begin(), flags.end(), ev.category) == flags.end())
        return;
    ++lines;

    std::ostringstream line;
    line << "[" << ev.category << "] " << ev.when << " " << ev.track
         << ": ";
    if (ev.kind == EventKind::Begin)
        line << "begin ";
    else if (ev.kind == EventKind::End)
        line << (ev.name.empty() ? "end" : "end ");
    line << ev.name;
    if (!ev.args.empty()) {
        line << " (";
        bool first = true;
        for (const auto &[key, value] : ev.args) {
            if (!first)
                line << " ";
            first = false;
            line << key << "=" << value;
        }
        line << ")";
    }
    line << "\n";

    out << line.str();
}

void
TextTraceSink::flush()
{
    out.flush();
}

} // namespace firefly::obs
