#include "common/logging.hh"

#include <atomic>
#include <exception>
#include <iostream>
#include <new>
#include <system_error>

namespace slip
{

namespace
{
std::atomic<bool> quietFlag{false};
} // namespace

void
setLogQuiet(bool quiet)
{
    quietFlag.store(quiet);
}

bool
logQuiet()
{
    return quietFlag.load();
}

const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::UserError:
        return "user_error";
      case ErrorKind::InternalError:
        return "internal_error";
      case ErrorKind::Resource:
        return "resource";
      case ErrorKind::Unknown:
        return "unknown";
    }
    return "?";
}

bool
errorRetryable(ErrorKind kind)
{
    // Deterministic failures (user input, simulator bugs) reproduce
    // on re-execution; only host-side resource trouble can pass.
    return kind == ErrorKind::Resource;
}

ErrorInfo
classifyCurrentException()
{
    try {
        throw;
    } catch (const FatalError &e) {
        return {ErrorKind::UserError, e.what()};
    } catch (const PanicError &e) {
        return {ErrorKind::InternalError, e.what()};
    } catch (const std::bad_alloc &e) {
        return {ErrorKind::Resource, e.what()};
    } catch (const std::system_error &e) {
        return {ErrorKind::Resource, e.what()};
    } catch (const std::exception &e) {
        return {ErrorKind::Unknown, e.what()};
    } catch (...) {
        return {ErrorKind::Unknown, "non-standard exception"};
    }
}

ErrorInfo
classifyException(std::exception_ptr exception)
{
    if (!exception)
        return {ErrorKind::Unknown, "no exception"};
    try {
        std::rethrow_exception(exception);
    } catch (...) {
        return classifyCurrentException();
    }
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "panic: " << msg << " [" << file << ":" << line << "]";
    throw PanicError(os.str());
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "fatal: " << msg << " [" << file << ":" << line << "]";
    throw FatalError(os.str());
}

void
warnImpl(const std::string &msg)
{
    if (!quietFlag.load())
        std::cerr << "warn: " << msg << "\n";
}

void
informImpl(const std::string &msg)
{
    if (!quietFlag.load())
        std::cerr << "info: " << msg << "\n";
}

} // namespace detail

int
runMain(int argc, char **argv, int (*body)(int argc, char **argv))
{
    try {
        return body(argc, argv);
    } catch (const FatalError &e) {
        const std::string program = argc > 0 ? argv[0] : "";
        std::cerr << program.substr(program.find_last_of('/') + 1)
                  << ": " << e.what() << "\n";
        return 2;
    }
}

} // namespace slip
