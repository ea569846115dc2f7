#include "uarch/trace_pred.hh"

namespace slip
{

TracePredictor::TracePredictor(const TracePredParams &params)
    : params(params),
      correlated(params.correlatedBits), simple(params.simpleBits),
      stats_("trace_pred")
{
}

size_t
TracePredictor::correlatedIndex(const PathHistory &history) const
{
    return history.correlatedHash() &
           ((size_t(1) << params.correlatedBits) - 1);
}

size_t
TracePredictor::simpleIndex(const PathHistory &history) const
{
    return history.simpleHash() & ((size_t(1) << params.simpleBits) - 1);
}

std::optional<TraceId>
TracePredictor::predict(const PathHistory &history) const
{
    const Entry *corr = correlated.find(correlatedIndex(history));
    const Entry *simp = simple.find(simpleIndex(history));

    // Hybrid selection: the correlated table wins once it has shown
    // at least one correct prediction for this path.
    if (corr && corr->counter > 0) {
        ++statPredictCorrelated;
        return corr->pred();
    }
    if (simp) {
        ++statPredictSimple;
        return simp->pred();
    }
    if (corr) {
        ++statPredictCorrelatedWeak;
        return corr->pred();
    }
    ++statPredictNone;
    return std::nullopt;
}

void
TracePredictor::trainEntry(Table &table, size_t index,
                           const TraceId &actual)
{
    Entry *entry = table.find(index);
    if (entry && entry->pred() == actual) {
        if (entry->counter < 3)
            ++entry->counter;
        return;
    }
    if (entry && entry->counter > 0) {
        // 2-bit counter governs replacement: decay before displacing.
        --entry->counter;
        return;
    }
    table.set(index, Entry{actual.startPc, actual.branchBits,
                           actual.numBranches, actual.length, 0});
}

void
TracePredictor::update(const PathHistory &history, const TraceId &actual)
{
    ++statUpdates;
    trainEntry(correlated, correlatedIndex(history), actual);
    trainEntry(simple, simpleIndex(history), actual);
}

} // namespace slip
