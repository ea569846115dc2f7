/**
 * @file
 * The instruction-removal predictor (paper §2.1.1).
 *
 * The paper builds the IR-predictor *on top of* the trace predictor:
 * each trace-predictor entry — indexed by a hash of the path history —
 * additionally holds an instruction-removal bit vector (ir-vec),
 * intermediate PCs for skipping fetch chunks, and a single resetting
 * confidence counter. The counter increments when the newly generated
 * {trace-id, ir-vec} pair from the IR-detector matches the pair
 * already at the entry, and resets otherwise.
 *
 * Keying by path history is load-bearing: because the *trace id* is
 * part of the compared pair, an entry whose next trace is itself
 * unpredictable (an unstable trace, §2.1.3) keeps resetting and never
 * reaches the threshold — removal is implicitly restricted to
 * consistently predicted control flow, which is why the paper finds
 * removal succeeding only on highly branch-predictable benchmarks.
 * A trace-id-keyed variant is provided as an ablation knob
 * (`keyByTraceId`) to quantify exactly that effect.
 *
 * Intermediate PCs are represented implicitly: removed slot runs of at
 * least `skipRunLength` instructions are skipped before fetch (no
 * fetch bandwidth, no I-cache access), shorter removed runs are
 * fetched and dropped before decode — the two removal levels of
 * §2.1.1.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_IR_PREDICTOR_HH
#define SLIPSTREAM_SLIPSTREAM_IR_PREDICTOR_HH

#include <optional>
#include <type_traits>

#include "common/lazy_table.hh"
#include "common/stats.hh"
#include "slipstream/removal.hh"
#include "uarch/trace.hh"
#include "uarch/trace_pred.hh"

namespace slip
{

/** IR-predictor configuration (paper Table 2 defaults). */
struct IRPredictorParams
{
    unsigned tableBits = 16;           // 2^16 entries
    unsigned confidenceThreshold = 32; // resetting counter threshold
    unsigned skipRunLength = 4;        // min removed run skipped pre-fetch
    bool enabled = true;               // false = reliable (AR-SMT) mode
    bool keyByTraceId = false;         // ablation: decouple from path
};

/**
 * Tracks per-path removal candidates and their confidence; built up
 * by the IR-detector and consulted by the A-stream fetch unit.
 *
 * Virtual so tests can substitute adversarial removal policies and
 * prove that recovery preserves architectural correctness regardless
 * of what this predictor does.
 */
class IRPredictor
{
  public:
    explicit IRPredictor(const IRPredictorParams &params = {});
    virtual ~IRPredictor() = default;

    /**
     * Removal plan for the trace predicted to follow `history`.
     * Returns nullopt when the entry's stored pair names a different
     * trace, or confidence has not reached the threshold, or removal
     * is disabled.
     */
    virtual std::optional<RemovalPlan>
    lookup(const PathHistory &history, const TraceId &predicted) const;

    /**
     * IR-detector update: the computed ir-vec for the trace that
     * actually followed `history`. A matching {trace-id, ir-vec} pair
     * gains confidence; any difference resets the entry (paper
     * §2.1.1).
     */
    virtual void update(const PathHistory &history, const TraceId &actual,
                        const RemovalPlan &computed);

    /**
     * Drop all confidence (used on recovery in conservative modes).
     * Visits only the entries ever written.
     */
    void reset();

    /** Drop one entry's confidence (its removal proved wrong). */
    void resetEntry(const PathHistory &history, const TraceId &trace);

    /**
     * Fault injection: model a single-event upset in the predictor
     * SRAM. Flips one bit of the entry indexed by (history, trace) —
     * bits 0-7 land in the resetting confidence counter, bits 8+ in
     * the stored ir-vec. Returns true when live state was hit (a
     * valid entry, predictor enabled). An entry never written holds
     * no state to upset: nothing is written and false is returned.
     */
    bool corruptEntry(const PathHistory &history, const TraceId &trace,
                      unsigned bit);

    const IRPredictorParams &params() const { return params_; }
    StatGroup &stats() { return stats_; }

  private:
    /** One entry; validity lives in the table's bitmap. */
    struct Entry
    {
        uint64_t idHash = 0; // trace id of the stored pair
        RemovalPlan plan;
        unsigned confidence = 0;
    };
    static_assert(sizeof(Entry) <= 56 &&
                  std::is_trivially_copyable_v<Entry>);

    size_t indexOf(const PathHistory &history, const TraceId &id) const;

    IRPredictorParams params_;
    LazyTable<Entry> table;
    mutable StatGroup stats_;
    StatGroup::Handle statLookupBelowThreshold{
        stats_.handle("lookup_below_threshold")};
    StatGroup::Handle statLookupConfident{
        stats_.handle("lookup_confident")};
    StatGroup::Handle statUpdates{stats_.handle("updates")};
    StatGroup::Handle statConfidenceHits{
        stats_.handle("confidence_hits")};
    StatGroup::Handle statConfidenceResets{
        stats_.handle("confidence_resets")};
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_IR_PREDICTOR_HH
