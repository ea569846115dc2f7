/**
 * @file
 * Validated environment-knob parsing, and the strict unsigned parser
 * it shares with the tools' options and the JSON reader. Every
 * SLIPSTREAM_* knob follows one contract (the one SLIPSTREAM_JOBS
 * established): an unset variable means the built-in default, a
 * well-formed value wins, and garbage earns a warning naming the
 * variable and falls back to the default — it never aborts a run. An
 * empty or whitespace-only value (`SLIPSTREAM_DETECT= cmd`) counts as
 * *unset*, not as garbage: that is how shells and supervisors clear a
 * knob. Values are re-read on every call so tests can override
 * per-run.
 */

#ifndef SLIPSTREAM_COMMON_ENV_HH
#define SLIPSTREAM_COMMON_ENV_HH

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string>

namespace slip
{

/**
 * `text` as a T: decimal digits only (no sign, space or suffix) and
 * within T's range, so "-1" is an error rather than 2^64-1 and
 * 4294967296 does not fit an unsigned. `out` is untouched on failure.
 * envU64, the tools' options and the JSON reader all parse with it.
 */
template <typename T>
bool
parseUnsigned(const std::string &text, T &out)
{
    if (text.empty() || text[0] < '0' || text[0] > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size() ||
        v > static_cast<unsigned long long>(std::numeric_limits<T>::max()))
        return false;
    out = static_cast<T>(v);
    return true;
}

/**
 * $name parsed as a non-negative integer. Garbage (non-numeric,
 * negative, trailing junk, overflow) warns and returns `fallback`.
 */
uint64_t envU64(const char *name, uint64_t fallback);

/**
 * $name parsed as a boolean: 1/true/yes/on and 0/false/no/off
 * (case-insensitive). Anything else warns and returns `fallback`.
 */
bool envFlag(const char *name, bool fallback);

/**
 * $name matched (case-sensitively) against a closed set of mode
 * names. Unset, empty, or whitespace-only returns `fallback`; a
 * listed value returns its index in `choices`.
 *
 * Unlike the numeric knobs above, mode knobs get the STRICT contract:
 * an unrecognized value throws FatalError naming the variable and
 * listing every valid choice. A typo'd mode would silently run the
 * wrong experiment for hours — failing fast is the only safe
 * fallback ($SLIPSTREAM_DETECT, $SLIPSTREAM_ISOLATION and
 * $SLIPSTREAM_DISPATCH all parse through this).
 */
size_t envChoice(const char *name,
                 std::initializer_list<const char *> choices,
                 size_t fallback);

} // namespace slip

#endif // SLIPSTREAM_COMMON_ENV_HH
