#include "common/env.hh"

#include <cctype>
#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace slip
{

namespace
{

/**
 * The raw value of $name, or nullptr when the variable is unset OR
 * set to an empty / whitespace-only string. `FOO= cmd` and
 * `FOO=" " cmd` are how shells and supervisors *clear* a knob, not
 * how anyone spells a value — every helper treats them as unset, so
 * an empty SLIPSTREAM_DETECT= can never trip the strict mode-knob
 * contract. Leading/trailing whitespace around a real value is NOT
 * stripped here; the individual parsers decide what they accept.
 */
const char *
envRaw(const char *name)
{
    const char *env = std::getenv(name);
    if (!env)
        return nullptr;
    for (const char *p = env; *p; ++p)
        if (!std::isspace(static_cast<unsigned char>(*p)))
            return env;
    return nullptr;
}

} // namespace

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *env = envRaw(name);
    if (!env)
        return fallback;
    // No sign: "-1" must not masquerade as a huge count.
    const char *p = env;
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    uint64_t n = 0;
    if (parseUnsigned(p, n))
        return n;
    SLIP_WARN("ignoring ", name, "='", env,
              "' (want a non-negative integer); using ", fallback);
    return fallback;
}

bool
envFlag(const char *name, bool fallback)
{
    const char *env = envRaw(name);
    if (!env)
        return fallback;
    std::string v;
    for (const char *p = env; *p; ++p)
        v.push_back(char(std::tolower(static_cast<unsigned char>(*p))));
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    SLIP_WARN("ignoring ", name, "='", env,
              "' (want a boolean: 0/1/true/false/yes/no/on/off); "
              "using ",
              fallback ? "true" : "false");
    return fallback;
}

size_t
envChoice(const char *name,
          std::initializer_list<const char *> choices, size_t fallback)
{
    const char *env = envRaw(name);
    if (!env)
        return fallback;
    size_t i = 0;
    for (const char *choice : choices) {
        if (std::string(env) == choice)
            return i;
        ++i;
    }
    std::string valid;
    for (const char *choice : choices) {
        if (!valid.empty())
            valid += '|';
        valid += choice;
    }
    SLIP_FATAL(name, "='", env, "' is not a valid mode (want ", valid,
               "); refusing to guess");
}

} // namespace slip
