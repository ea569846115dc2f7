/**
 * @file
 * Whole-buffer reads and writes on a file descriptor, restarted on
 * EINTR and on partial transfers. Wire frames, result-cache entries
 * and campaign journal lines all go through this one pair;
 * common/crash_report.cc keeps its own write loop because it runs
 * inside a signal handler.
 */

#ifndef SLIPSTREAM_COMMON_FD_IO_HH
#define SLIPSTREAM_COMMON_FD_IO_HH

#include <cerrno>
#include <cstddef>
#include <unistd.h>

namespace slip
{

/** Write all `len` bytes; false on any write error. */
inline bool
writeAll(int fd, const void *data, size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        const ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= size_t(n);
    }
    return true;
}

/**
 * Read exactly `len` bytes. 1 = full read, 0 = clean EOF before the
 * first byte, -1 = torn (EOF partway) or an I/O error.
 */
inline int
readAll(int fd, void *data, size_t len)
{
    char *p = static_cast<char *>(data);
    size_t have = 0;
    while (have < len) {
        const ssize_t n = ::read(fd, p + have, len - have);
        if (n > 0) {
            have += size_t(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n == 0)
            return have == 0 ? 0 : -1;
        return -1;
    }
    return 1;
}

} // namespace slip

#endif // SLIPSTREAM_COMMON_FD_IO_HH
