/**
 * @file
 * Self-contained repro bundles for fuzz divergences.
 *
 * A bundle is a directory holding everything needed to reproduce and
 * debug one divergence with no access to the fuzz campaign that found
 * it: the seed and generator configuration, the minimized program
 * (and the original, when minimization shrank it), its disassembly,
 * the divergence report, and a README with the exact replay command.
 */

#ifndef SLIPSTREAM_FUZZ_REPRO_HH
#define SLIPSTREAM_FUZZ_REPRO_HH

#include <cstdint>
#include <string>

#include "slipstream/fault_injector.hh"

namespace slip::fuzz
{

/** Everything a bundle records about one divergence. */
struct ReproSpec
{
    uint64_t seed = 0;
    std::string configSummary;    // GeneratorConfig::summary()
    std::string report;           // the oracle's divergence report
    std::string originalSource;   // as generated
    std::string minimizedSource;  // after greedy minimization
    std::vector<FaultPlan> faults; // armed faults, if any
    size_t unitsRemoved = 0;      // minimizer statistics
    unsigned oracleEvaluations = 0;

    // Overrides for non-fuzz producers (the campaign supervisor's
    // poison-trial quarantine reuses the bundle format). Empty keeps
    // the fuzz defaults.
    std::string bundleName;    // directory name; "" = "seed_<seed>"
    std::string title;         // README heading
    std::string replayCommand; // README replay line
};

/** "target=memory_cell index=40 bit=3" style rendering. */
std::string describeFaults(const std::vector<FaultPlan> &faults);

/**
 * Write the bundle under `outDir` (created if needed) as
 * `<outDir>/seed_<seed>/`. Returns the bundle directory path.
 * Filesystem errors raise fatal() — a fuzz campaign that cannot
 * record its findings should stop, not drop them.
 */
std::string writeReproBundle(const std::string &outDir,
                             const ReproSpec &spec);

} // namespace slip::fuzz

#endif // SLIPSTREAM_FUZZ_REPRO_HH
