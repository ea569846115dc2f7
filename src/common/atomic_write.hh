/**
 * @file
 * Whole-file writes that a kill cannot tear: campaign reports, the
 * shootout table, bench_perf.json and result-cache entries.
 */

#ifndef SLIPSTREAM_COMMON_ATOMIC_WRITE_HH
#define SLIPSTREAM_COMMON_ATOMIC_WRITE_HH

#include <string>

namespace slip
{

/**
 * Replace `path` with `bytes`: create the parent directory, write the
 * temp sibling `<path>.tmp.<pid>`, then rename it into place, so a
 * reader sees the old file or the new one, never a torn one. Never
 * throws; a failure warns with `what`, the path and the reason.
 */
bool writeFileAtomically(const std::string &path, const std::string &bytes,
                         const char *what);

} // namespace slip

#endif // SLIPSTREAM_COMMON_ATOMIC_WRITE_HH
