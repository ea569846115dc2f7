/**
 * @file
 * Greedy test-case minimization for divergent generated programs.
 *
 * Works on the generator's unit list, never on raw text: candidates
 * are whole loop spans (LoopBegin..LoopEnd inclusive, so back-edge
 * labels never dangle) first, then individual statement units. A
 * removal is kept if and only if the re-rendered program still
 * assembles and the caller's predicate still reports a divergence;
 * passes repeat until a full pass removes nothing (or the attempt
 * budget runs out).
 */

#ifndef SLIPSTREAM_FUZZ_MINIMIZE_HH
#define SLIPSTREAM_FUZZ_MINIMIZE_HH

#include <functional>
#include <string>

#include "fuzz/generator.hh"

namespace slip::fuzz
{

struct MinimizeResult
{
    std::string source;       // minimized program text
    size_t unitsRemoved = 0;  // removable units dropped
    size_t unitsKept = 0;     // removable units remaining
    unsigned attempts = 0;    // predicate evaluations spent
};

/**
 * Shrink `program` while `stillDiverges(source)` holds, in at most 400
 * predicate evaluations. The predicate receives a complete candidate
 * source and must return true when the divergence reproduces on it (it
 * should return false, not throw, on candidates it cannot evaluate).
 */
MinimizeResult
minimize(const GeneratedProgram &program,
         const std::function<bool(const std::string &)> &stillDiverges);

} // namespace slip::fuzz

#endif // SLIPSTREAM_FUZZ_MINIMIZE_HH
