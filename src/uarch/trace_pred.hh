/**
 * @file
 * Hybrid path-based next-trace predictor (Jacobson, Rotenberg, Smith —
 * "Path-Based Next Trace Prediction"; the paper's §2.1.1 builds its
 * IR-predictor on this design).
 *
 * Two tables predict the id of the next trace:
 *  - a correlated table indexed by a hash of the last 8 trace ids,
 *    with the hash favoring bits of more recent ids;
 *  - a simple table indexed by only the most recent trace id (shorter
 *    learning time, less aliasing pressure).
 * Each entry holds a predicted trace id and a 2-bit counter used both
 * for replacement and as the hybrid selector: the correlated table
 * wins when its counter is nonzero.
 *
 * Path history is owned by the *user* of the predictor (each fetch
 * front end keeps its own speculative history and resyncs it at
 * recovery), so history management is explicit here.
 */

#ifndef SLIPSTREAM_UARCH_TRACE_PRED_HH
#define SLIPSTREAM_UARCH_TRACE_PRED_HH

#include <array>
#include <optional>
#include <type_traits>

#include "common/lazy_table.hh"
#include "common/stats.hh"
#include "uarch/trace.hh"

namespace slip
{

/**
 * Rolling path history of the last N trace ids (as hashes). Both
 * index hashes are computed when the history changes, not per lookup:
 * every trace consults the same history several times (trace and
 * IR-predictor lookups in the walk, both updates at retirement).
 */
class PathHistory
{
  public:
    static constexpr unsigned kDepth = 8;

    PathHistory() { clear(); }

    void
    push(const TraceId &id)
    {
        for (unsigned i = kDepth - 1; i > 0; --i)
            ids[i] = ids[i - 1];
        ids[0] = id.hash();
        rehash();
    }

    void
    clear()
    {
        ids.fill(0);
        rehash();
    }

    /**
     * Index hash over the full path, weighting recent traces more:
     * older ids are shifted right so fewer of their bits survive into
     * the low-order index bits.
     */
    uint64_t correlatedHash() const { return correlated; }

    /** Hash of only the most recent trace id. */
    uint64_t simpleHash() const { return simple; }

  private:
    void
    rehash()
    {
        uint64_t h = 0;
        for (unsigned i = 0; i < kDepth; ++i)
            h = hashCombine(h, ids[i] >> (2 * i));
        correlated = h;
        simple = mix64(ids[0]);
    }

    std::array<uint64_t, kDepth> ids;
    uint64_t correlated;
    uint64_t simple;
};

/** Configuration for the trace predictor (paper Table 2 defaults). */
struct TracePredParams
{
    unsigned correlatedBits = 16; // 2^16-entry path-based table
    unsigned simpleBits = 16;     // 2^16-entry simple table
};

/** The hybrid next-trace predictor. */
class TracePredictor
{
  public:
    /**
     * Both tables start empty; their storage is written entry by
     * entry as training reaches it (common/lazy_table.hh).
     */
    explicit TracePredictor(const TracePredParams &params = {});

    /**
     * Predict the trace that follows the given path history.
     * Returns nullopt when neither table has a (plausibly) useful
     * entry — the fetch unit then falls back to static construction.
     */
    std::optional<TraceId> predict(const PathHistory &history) const;

    /**
     * Train with the actual next trace for the path that *preceded*
     * it. Both tables update their entry: matching predictions gain
     * counter confidence, mismatches decay and eventually replace.
     */
    void update(const PathHistory &history, const TraceId &actual);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    /**
     * One table entry: the predicted trace id's fields laid out flat,
     * so the counter fills what would be TraceId's tail padding.
     * Validity lives in the table's bitmap.
     */
    struct Entry
    {
        Addr startPc;
        uint64_t branchBits;
        uint8_t numBranches;
        uint8_t length;
        uint8_t counter; // 2-bit saturating

        TraceId
        pred() const
        {
            return TraceId{startPc, branchBits, numBranches, length};
        }
    };
    static_assert(sizeof(Entry) <= 24 &&
                  std::is_trivially_copyable_v<Entry>);

    using Table = LazyTable<Entry>;

    static void trainEntry(Table &table, size_t index,
                           const TraceId &actual);

    size_t correlatedIndex(const PathHistory &history) const;
    size_t simpleIndex(const PathHistory &history) const;

    TracePredParams params;
    Table correlated;
    Table simple;
    mutable StatGroup stats_;
    StatGroup::Handle statPredictCorrelated{
        stats_.handle("predict_correlated")};
    StatGroup::Handle statPredictSimple{stats_.handle("predict_simple")};
    StatGroup::Handle statPredictCorrelatedWeak{
        stats_.handle("predict_correlated_weak")};
    StatGroup::Handle statPredictNone{stats_.handle("predict_none")};
    StatGroup::Handle statUpdates{stats_.handle("updates")};
};

} // namespace slip

#endif // SLIPSTREAM_UARCH_TRACE_PRED_HH
