/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * panic()  — an internal simulator invariant was violated (a bug in this
 *            library); aborts so a debugger/core dump can catch it.
 * fatal()  — the simulation cannot continue due to a user error (bad
 *            configuration, malformed assembly, ...); throws FatalError,
 *            which runMain() turns into exit status 2.
 * warn()   — something is suspicious but the simulation continues.
 * inform() — status messages.
 */

#ifndef SLIPSTREAM_COMMON_LOGGING_HH
#define SLIPSTREAM_COMMON_LOGGING_HH

#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>

namespace slip
{

/**
 * Exception thrown by fatal(). Using an exception (rather than exit())
 * keeps the library embeddable and lets tests assert on user-error paths.
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/**
 * Exception thrown by panic(). Tests use this to assert that internal
 * invariant checks fire; the top-level drivers treat it as a crash.
 */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/**
 * Coarse classification of a caught exception, used by the trial
 * supervisor to decide whether re-running a failed job could help.
 *
 * UserError      fatal(): bad configuration or input — deterministic,
 *                retrying reproduces it.
 * InternalError  panic(): a simulator invariant broke — deterministic,
 *                and retrying would hide a bug.
 * Resource       a host-side resource failure (allocation, OS error) —
 *                plausibly transient, the only retryable kind.
 * Unknown        anything else.
 */
enum class ErrorKind : uint8_t
{
    UserError,
    InternalError,
    Resource,
    Unknown,
};

/** The greatest ErrorKind (the wire decoder's range check). */
constexpr ErrorKind
lastEnumerator(ErrorKind)
{
    return ErrorKind::Unknown;
}

/** "user_error", "internal_error", "resource", "unknown". */
const char *errorKindName(ErrorKind kind);

/** Whether re-running the failed work could plausibly succeed. */
bool errorRetryable(ErrorKind kind);

/** A classified exception: its kind plus the what() text. */
struct ErrorInfo
{
    ErrorKind kind = ErrorKind::Unknown;
    std::string message;
};

/**
 * Classify the exception currently in flight. Only meaningful inside
 * a catch block; returns Unknown with a placeholder message for
 * non-std::exception throws. std::bad_alloc (and anything derived
 * from it) classifies as Resource — OOM-ish failures must reach the
 * supervisor's retry-with-backoff path, not dead-end as Unknown.
 */
ErrorInfo classifyCurrentException();

/**
 * Classify a captured exception. Null pointers classify as Unknown —
 * fork-isolated outcomes carry no exception_ptr across the process
 * boundary, and callers handle that case on the message/kind fields
 * instead.
 */
ErrorInfo classifyException(std::exception_ptr exception);

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Concatenate a parameter pack into one string via a stream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Toggle for warn()/inform() output (benchmarks silence them). */
void setLogQuiet(bool quiet);
bool logQuiet();

/**
 * Every bench and tool main(): runs `body`, and turns a FatalError
 * that escapes it (a bad strict mode knob, say) into
 * "<program>: fatal: ..." on stderr and exit status 2, the usage-error
 * status, instead of std::terminate's SIGABRT.
 */
int runMain(int argc, char **argv, int (*body)(int argc, char **argv));

} // namespace slip

#define SLIP_PANIC(...) \
    ::slip::detail::panicImpl(__FILE__, __LINE__, \
                              ::slip::detail::concat(__VA_ARGS__))

#define SLIP_FATAL(...) \
    ::slip::detail::fatalImpl(__FILE__, __LINE__, \
                              ::slip::detail::concat(__VA_ARGS__))

#define SLIP_WARN(...) \
    ::slip::detail::warnImpl(::slip::detail::concat(__VA_ARGS__))

#define SLIP_INFORM(...) \
    ::slip::detail::informImpl(::slip::detail::concat(__VA_ARGS__))

/** Invariant check that survives NDEBUG builds; panics with a message. */
#define SLIP_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            SLIP_PANIC("assertion failed: " #cond " — ", ##__VA_ARGS__); \
        } \
    } while (0)

#endif // SLIPSTREAM_COMMON_LOGGING_HH
