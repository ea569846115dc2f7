/**
 * @file
 * Shared plumbing for the table/figure reproduction binaries: size
 * selection via the SLIPSTREAM_BENCH_SIZE environment variable
 * (test | small | default; the paper-style runs use `default`),
 * worker-count reporting, and banner printing.
 */

#ifndef SLIPSTREAM_BENCH_BENCH_COMMON_HH
#define SLIPSTREAM_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/sim_runner.hh"
#include "harness/table.hh"
#include "obs/trace_session.hh"
#include "workloads/workloads.hh"

namespace slip::bench
{

/**
 * Workload scale from $SLIPSTREAM_BENCH_SIZE (default: small). The
 * environment is read once — benches call this from many loops — and
 * an unrecognised value earns a warning instead of silently running
 * `small`.
 */
inline WorkloadSize
benchSize()
{
    static const WorkloadSize cached = [] {
        const char *env = std::getenv("SLIPSTREAM_BENCH_SIZE");
        const std::string s = env ? env : "small";
        WorkloadSize size = WorkloadSize::Small;
        if (!parseWorkloadSize(s, size))
            SLIP_WARN("unknown SLIPSTREAM_BENCH_SIZE='", s,
                      "' (want test|small|default); using 'small'");
        return size;
    }();
    return cached;
}

inline const char *
benchSizeName()
{
    return sizeName(benchSize());
}

/**
 * Apply a `--trace[=categories]` bench argument: overrides whatever
 * SLIPSTREAM_TRACE resolved to for this invocation. Bare `--trace`
 * enables every category. Returns false when `arg` is not a trace
 * flag (the caller handles — or rejects — it). Call before banner()
 * so unknown category names are warned about, not silently muted.
 */
inline bool
applyTraceArg(const std::string &arg)
{
    const std::string prefix = "--trace=";
    if (arg != "--trace" && arg.rfind(prefix, 0) != 0)
        return false;
    obs::TraceConfig cfg = obs::TraceSession::global().config();
    cfg.mask = arg == "--trace"
                   ? obs::kAllCategories
                   : obs::parseCategoryMask(arg.substr(prefix.size()));
    obs::TraceSession::global().configure(cfg);
    return true;
}

/** Standard banner naming the paper artifact being regenerated. */
inline void
banner(const std::string &artifact, const std::string &paperNote)
{
    // Resolve every environment knob before muting warnings so bad
    // SLIPSTREAM_BENCH_SIZE / SLIPSTREAM_JOBS / supervision /
    // SLIPSTREAM_TRACE values are reported instead of silently
    // falling back.
    const char *size = benchSizeName();
    const unsigned jobs = defaultJobs();
    const Supervision supervision = Supervision::fromEnv();
    const obs::TraceConfig trace = obs::TraceSession::global().config();
    slip::setLogQuiet(true);
    std::cout << "=== " << artifact << " ===\n"
              << "paper: " << paperNote << "\n"
              << "workload size: " << size
              << " (set SLIPSTREAM_BENCH_SIZE=test|small|default)\n"
              << "parallel jobs: " << jobs
              << " (set SLIPSTREAM_JOBS=N)\n";
    if (supervision.timeoutMs)
        std::cout << "trial deadline: " << supervision.timeoutMs
                  << " ms (SLIPSTREAM_TRIAL_TIMEOUT_MS)\n";
    if (trace.mask) {
        std::cout << "tracing: " << obs::categoryMaskNames(trace.mask)
                  << " -> " << trace.dir
                  << "/*.trace.json (--trace[=cats] or "
                     "SLIPSTREAM_TRACE)\n";
    }
    std::cout << "\n";
}

} // namespace slip::bench

#endif // SLIPSTREAM_BENCH_BENCH_COMMON_HH
