#include "sim/json.hh"

#include <cstdio>

namespace firefly
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonQuote(const std::string &s)
{
    // Appended, not concatenated: GCC 12's -Wrestrict misfires on
    // `"\"" + std::string&&` in an optimised build.
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

} // namespace firefly
