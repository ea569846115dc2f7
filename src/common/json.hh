/**
 * @file
 * The program's JSON: the escaping its writers share (campaign
 * journals and reports, served fuzz lines, trace exports) and the one
 * reader for what it writes (reports, journal lines, bench_perf.json,
 * benchmark files). Header-only, so tools that link nothing
 * (bench_diff) read with the same parser.
 */

#ifndef SLIPSTREAM_COMMON_JSON_HH
#define SLIPSTREAM_COMMON_JSON_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/env.hh"

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

/** One parsed JSON value. */
struct Json
{
    enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
    bool b = false;
    /** A string's text, or a number's source text (see jsonNumber). */
    std::string str;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj; // order-preserving
    /** Where the value sits in the parsed text: [begin, end). */
    size_t begin = 0, end = 0;

    const Json *
    get(const std::string &key) const
    {
        for (const auto &[k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }
};

/** "JSON parse error at offset N: why"; "truncated" if it ends early. */
struct JsonError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

namespace json_detail
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    Json
    parse()
    {
        Json v = value(0);
        ws();
        if (pos != s.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        throw JsonError("JSON parse error at offset " + std::to_string(pos) +
                        ": " + (pos < s.size() ? why : "truncated"));
    }

    void
    ws()
    {
        while (pos < s.size() && std::isspace(uint8_t(s[pos])))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= s.size())
            fail("");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    digits()
    {
        const size_t from = pos;
        while (pos < s.size() && std::isdigit(uint8_t(s[pos])))
            ++pos;
        return pos > from;
    }

    Json
    value(unsigned depth)
    {
        ws();
        if (depth > 64)
            fail("nested too deeply");
        Json v;
        v.begin = pos;
        const char c = peek();
        if (c == '{' || c == '[') {
            v.kind = c == '{' ? Json::Obj : Json::Arr;
            const char close = c == '{' ? '}' : ']';
            ++pos;
            ws();
            bool more = peek() != close;
            while (more) {
                if (c == '{') {
                    ws();
                    std::string key = string();
                    ws();
                    expect(':');
                    v.obj.emplace_back(std::move(key), value(depth + 1));
                } else {
                    v.arr.push_back(value(depth + 1));
                }
                ws();
                more = peek() == ',';
                pos += more;
            }
            expect(close);
        } else if (c == '"') {
            v.kind = Json::Str;
            v.str = string();
        } else if (c == 't' || c == 'f' || c == 'n') {
            const std::string word = c == 't' ? "true" : c == 'f' ? "false"
                                                                   : "null";
            for (const char w : word)
                expect(w);
            v.kind = c == 'n' ? Json::Null : Json::Bool;
            v.b = c == 't';
        } else {
            // -?digits(.digits)?([eE][+-]?digits)?, kept as text.
            v.kind = Json::Num;
            pos += c == '-';
            bool ok = digits();
            if (ok && pos < s.size() && s[pos] == '.') {
                ++pos;
                ok = digits();
            }
            if (ok && pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
                ++pos;
                pos += pos < s.size() && (s[pos] == '+' || s[pos] == '-');
                ok = digits();
            }
            if (!ok)
                fail("expected a value");
            v.str = s.substr(v.begin, pos - v.begin);
        }
        v.end = pos;
        return v;
    }

    /** The exact inverse of jsonEscape(), plus JSON's other escapes. */
    std::string
    string()
    {
        expect('"');
        std::string out;
        for (char c; (c = peek()) != '"'; ++pos) {
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control byte in a string");
            if (c != '\\') {
                out += c;
                continue;
            }
            ++pos;
            static const std::string named = "\"\\/bfnrt";
            static const std::string bytes = "\"\\/\b\f\n\r\t";
            const size_t k = named.find(peek());
            if (k != std::string::npos) {
                out += bytes[k];
                continue;
            }
            if (s[pos] != 'u')
                fail("bad escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
                ++pos;
                const char h = peek();
                if (!std::isxdigit(uint8_t(h)))
                    fail("bad \\u escape");
                cp = cp * 16 + unsigned(std::isdigit(uint8_t(h))
                                            ? h - '0'
                                            : (h | 0x20) - 'a' + 10);
            }
            // As UTF-8 (surrogate halves are not paired).
            if (cp < 0x80) {
                out += char(cp);
            } else if (cp < 0x800) {
                out += {char(0xc0 | cp >> 6), char(0x80 | (cp & 0x3f))};
            } else {
                out += {char(0xe0 | cp >> 12), char(0x80 | (cp >> 6 & 0x3f)),
                        char(0x80 | (cp & 0x3f))};
            }
        }
        ++pos;
        return out;
    }

    const std::string &s;
    size_t pos = 0;
};

} // namespace json_detail

/** Parse one whole document; throws JsonError. */
inline Json
parseJson(const std::string &text)
{
    return json_detail::Parser(text).parse();
}

/**
 * A number as T, by T's own rules: an integer must be plain digits
 * within T's range (parseUnsigned), so 18446744073709551615 reads back
 * exactly and -1 or 1.5 is refused. False when `j` is no such number.
 */
template <typename T>
bool
jsonNumber(const Json &j, T &out)
{
    if (j.kind != Json::Num)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        out = T(std::strtod(j.str.c_str(), nullptr));
        return true;
    } else {
        return parseUnsigned(j.str, out);
    }
}

} // namespace slip

#endif // SLIPSTREAM_COMMON_JSON_HH
