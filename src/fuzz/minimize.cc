#include "fuzz/minimize.hh"

#include <utility>
#include <vector>

namespace slip::fuzz
{

namespace
{

/** The predicate evaluations one minimization may spend. */
constexpr unsigned kMaxAttempts = 400;

/** Index ranges of candidate removals: loop spans, then statements. */
std::vector<std::pair<size_t, size_t>>
candidates(const GeneratedProgram &program)
{
    std::vector<std::pair<size_t, size_t>> out;
    // Loop spans (inner loops nest inside outer spans; trying the
    // outer span first removes the most at once).
    for (size_t i = 0; i < program.units.size(); ++i) {
        if (program.units[i].kind != ProgramUnit::Kind::LoopBegin)
            continue;
        for (size_t j = i + 1; j < program.units.size(); ++j) {
            if (program.units[j].kind == ProgramUnit::Kind::LoopEnd &&
                program.units[j].loopId == program.units[i].loopId) {
                out.emplace_back(i, j);
                break;
            }
        }
    }
    for (size_t i = 0; i < program.units.size(); ++i) {
        if (program.units[i].kind == ProgramUnit::Kind::Stmt)
            out.emplace_back(i, i);
    }
    return out;
}

} // namespace

MinimizeResult
minimize(const GeneratedProgram &program,
         const std::function<bool(const std::string &)> &stillDiverges)
{
    const auto ranges = candidates(program);
    std::vector<bool> keep(program.units.size(), true);
    MinimizeResult result;

    bool removedAny = true;
    while (removedAny && result.attempts < kMaxAttempts) {
        removedAny = false;
        for (const auto &[lo, hi] : ranges) {
            if (result.attempts >= kMaxAttempts)
                break;
            // Skip ranges already gone (e.g. inside a removed span).
            bool live = false;
            for (size_t i = lo; i <= hi; ++i)
                live = live || keep[i];
            if (!live)
                continue;

            std::vector<bool> trial = keep;
            for (size_t i = lo; i <= hi; ++i)
                trial[i] = false;
            ++result.attempts;
            if (stillDiverges(program.render(trial))) {
                keep = std::move(trial);
                removedAny = true;
            }
        }
    }

    for (size_t i = 0; i < program.units.size(); ++i) {
        if (program.units[i].kind == ProgramUnit::Kind::Fixed)
            continue;
        if (keep[i])
            ++result.unitsKept;
        else
            ++result.unitsRemoved;
    }
    result.source = program.render(keep);
    return result;
}

} // namespace slip::fuzz
