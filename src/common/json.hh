/**
 * @file
 * Escaping for the JSON the program writes by hand: campaign journals
 * and reports, served fuzz lines, and trace exports.
 */

#ifndef SLIPSTREAM_COMMON_JSON_HH
#define SLIPSTREAM_COMMON_JSON_HH

#include <cstdio>
#include <string>

namespace slip
{

/**
 * `s` as the body of a JSON string literal: `"` and `\` escaped,
 * newline, carriage return and tab by name, any other control byte as
 * \u00XX. Nothing is dropped or replaced, so a name that came from a
 * socket or the command line reads back as it was given.
 */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n' || c == '\r' || c == '\t') {
            out += '\\';
            out += c == '\n' ? 'n' : c == '\r' ? 'r' : 't';
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char code[8];
            std::snprintf(code, sizeof(code), "\\u%04x", unsigned(c));
            out += code;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace slip

#endif // SLIPSTREAM_COMMON_JSON_HH
