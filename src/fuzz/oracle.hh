/**
 * @file
 * Three-way differential co-simulation oracle.
 *
 * Every program is executed through three independent models:
 *
 *  1. the functional reference (src/func) — architectural truth;
 *  2. the full slipstream dual-core (src/slipstream), and the same
 *     run again, captured at half of leg 2's cycles and finished in a
 *     fresh processor restored from the capture: it must end at leg
 *     2's cycle, so every generated program exercises restore;
 *  3. the slipstream processor forced into degraded R-only mode
 *     mid-run (the graceful-degradation path, which swaps fetch
 *     sources and retire hooks and must remain architecturally
 *     invisible).
 *
 * The oracle diffs, per timing leg against the functional reference:
 * program output, retired instruction count, the complete retired
 * architectural store stream (address/width/value in retirement
 * order), the final register file, and the final memory image. Runs
 * execute with runtime invariant checkers enabled, so a violated
 * model invariant (delay-buffer FIFO consistency, IR-predictor
 * confidence bounds, recovery postconditions) surfaces as a
 * divergence too, not a crash.
 */

#ifndef SLIPSTREAM_FUZZ_ORACLE_HH
#define SLIPSTREAM_FUZZ_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "assembler/program.hh"
#include "slipstream/fault_injector.hh"

namespace slip::fuzz
{

/** One architecturally retired store. */
struct StoreEvent
{
    Addr pc = 0;
    Addr addr = 0;
    unsigned bytes = 0;
    uint64_t value = 0;

    bool operator==(const StoreEvent &other) const = default;
};

/**
 * Oracle knobs. Every slipstream leg runs the Table 2 configuration
 * (SlipstreamParams' defaults).
 */
struct OracleOptions
{
    /** Timing-leg cycle budget; exceeding it is a divergence. */
    Cycle maxCycles = 20'000'000;

    /** Faults to arm on the *slipstream* leg (fault-injection demos;
     *  an undetectable fault must surface as a divergence). */
    std::vector<FaultPlan> faults;
};

/** Oracle outcome: clean, or a divergence with a readable report. */
struct OracleVerdict
{
    bool diverged = false;

    /**
     * Self-contained description: which leg, which comparison failed
     * first, and the values on both sides. Empty when clean.
     */
    std::string report;
};

/** Run every leg and diff them. */
OracleVerdict runOracle(const Program &program,
                        const OracleOptions &options = {});

} // namespace slip::fuzz

#endif // SLIPSTREAM_FUZZ_ORACLE_HH
