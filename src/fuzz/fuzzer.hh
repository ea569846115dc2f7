/**
 * @file
 * The differential-fuzz campaign driver: generates one program per
 * seed, runs the three-way oracle on each, and — on divergence —
 * greedily minimizes the program and writes a self-contained repro
 * bundle. Each seed is one job of a supervised SimJobRunner batch,
 * run on the runner's threads or, under fork isolation, its worker
 * processes; results are collected in seed order, so a campaign's
 * summary, reports, and bundles are byte-identical whatever
 * $SLIPSTREAM_JOBS and the isolation mode say.
 */

#ifndef SLIPSTREAM_FUZZ_FUZZER_HH
#define SLIPSTREAM_FUZZ_FUZZER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"
#include "harness/worker_pool.hh"

namespace slip::fuzz
{

/** Campaign configuration. */
struct FuzzOptions
{
    uint64_t seedBegin = 0; // [seedBegin, seedEnd)
    uint64_t seedEnd = 100;

    /** Worker threads; 0 = defaultJobs() ($SLIPSTREAM_JOBS). */
    unsigned jobs = 0;

    /**
     * Wall-clock budget in ms; 0 = none. Checked between batches:
     * once exceeded, no further seeds start (running ones finish).
     */
    uint64_t budgetMs = 0;

    bool minimizeDivergences = true;

    /** Where repro bundles land; empty disables bundle writing. */
    std::string bundleDir = "fuzz-repros";

    /**
     * Sandboxing for the oracle legs. Defaults to
     * $SLIPSTREAM_ISOLATION; under fork isolation a generated program
     * that hard-crashes the simulator (wild store, stack smash,
     * sanitizer abort) costs one seed — reported as a finding with a
     * crash bundle — instead of killing the whole campaign. This is
     * what lets the nightly ASan fuzzer survive the crashes it
     * exists to find.
     */
    IsolationMode isolation = isolationFromEnv();

    GeneratorConfig gen;
    OracleOptions oracle;

    /**
     * Progress hook, called once per finished seed in seed order from
     * the collecting thread (no synchronization needed).
     */
    std::function<void(uint64_t seed, bool diverged)> onSeed;
};

/** What one seed produced. */
struct FuzzCase
{
    uint64_t seed = 0;
    bool diverged = false;
    std::string report;     // oracle report (minimized program's)
    std::string bundlePath; // written bundle, if any
    std::string error;      // infrastructure failure (not a divergence)

    /** The wire fields, in order (see harness/wire.hh): a seed's
     *  case crosses back from the runner's executor in these. */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("seed", self.seed);
        v("diverged", self.diverged);
        v("report", self.report);
        v("bundle path", self.bundlePath);
        v("error", self.error);
    }
};

/** Campaign totals. */
struct FuzzSummary
{
    uint64_t seedsRun = 0;
    uint64_t divergences = 0;
    uint64_t errors = 0;
    uint64_t workerCrashes = 0; // seeds whose sandboxed worker died
    bool budgetExhausted = false; // stopped early on budgetMs
    std::vector<FuzzCase> findings; // divergent + errored cases only
};

/** Run the campaign. */
FuzzSummary runFuzz(const FuzzOptions &options);

} // namespace slip::fuzz

#endif // SLIPSTREAM_FUZZ_FUZZER_HH
