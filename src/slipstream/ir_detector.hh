/**
 * @file
 * The instruction-removal detector (paper §2.1.2, Figure 3).
 *
 * Monitors the R-stream's retired instructions (delivered per trace /
 * packet), merges them into per-trace reverse dataflow graphs through
 * the operand rename table, and detects the three triggering
 * conditions: unreferenced writes, non-modifying writes, and branch
 * instructions. Selection status back-propagates within each trace.
 *
 * The analysis scope covers the most recent 8 traces: a trace's ir-vec
 * is finalized when the trace leaves the scope (kills can no longer
 * arrive), at which point the detector
 *   1. loads {trace-id, ir-vec} into the IR-predictor, and
 *   2. verifies the A-stream's *predicted* ir-vec against the computed
 *      one — removal of an instruction the detector cannot confirm is
 *      an IR-misprediction (the paper's "time limit" on detection,
 *      §2.3), reported through the recovery callback.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_IR_DETECTOR_HH
#define SLIPSTREAM_SLIPSTREAM_IR_DETECTOR_HH

#include <functional>
#include <vector>

#include "common/ring.hh"
#include "common/stats.hh"
#include "slipstream/delay_buffer.hh"
#include "slipstream/ir_predictor.hh"
#include "slipstream/operand_rename_table.hh"
#include "slipstream/rdfg.hh"

namespace slip
{

/** IR-detector configuration (paper Table 2 defaults). */
struct IRDetectorParams
{
    unsigned scopeTraces = 8;    // analysis scope (traces)
    bool removeBranches = true;  // BR trigger enabled
    bool removeWrites = true;    // WW + SV triggers enabled

    bool operator==(const IRDetectorParams &) const = default;
};

/** One retired trace as seen by the detector: packet + R outcomes. */
struct RetiredTrace
{
    const Packet *packet = nullptr;
    const std::vector<ExecResult> *rExec = nullptr; // per slot
    const PathHistory *historyBefore = nullptr;     // path before it
};

/** The detector. */
class IRDetector
{
  public:
    IRDetector(const IRDetectorParams &params, IRPredictor &irPred);

    /**
     * Feed one fully retired trace. May finalize (evict) an older
     * trace, updating the IR-predictor and running the predicted-vs-
     * computed ir-vec check.
     */
    void processTrace(const RetiredTrace &trace);

    /** Finalize everything still in scope (end of program). */
    void drain();

    /** Clear scope and rename table (recovery). */
    void reset();

    /**
     * Invoked when a predicted ir-vec removed instructions the
     * detector cannot confirm removable (an IR-misprediction). The
     * detector has already reset the offending entry's confidence.
     */
    std::function<void(uint64_t packetNum)> onIRMispredict;

    /**
     * Invoked when a trace leaves the scope with all its removals
     * verified; the recovery controller stops tracking the trace's
     * skipped stores.
     */
    std::function<void(uint64_t packetNum)> onTraceVerified;

    StatGroup &stats() { return stats_; }
    const IRDetectorParams &params() const { return params_; }

    /** The checkpoint field list (common/checkpoint.hh). */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar(self.ort, self.scope, self.stats_);
    }

  private:
    struct ScopedTrace
    {
        uint64_t packetNum = 0;
        TraceId id;
        PathHistory historyBefore;
        uint64_t predictedIrVec = 0;
        uint64_t storeMask = 0; // slots that are memory stores
        Rdfg rdfg;

        template <typename Self, typename Ar>
        static void
        checkpointFields(Self &self, Ar &ar)
        {
            ar(self.packetNum, self.id, self.historyBefore,
               self.predictedIrVec, self.storeMask, self.rdfg);
        }
    };

    /** Map a packet number to its in-scope trace, or nullptr. */
    ScopedTrace *findScoped(uint64_t packetNum);

    void mergeInstruction(ScopedTrace &trace, unsigned slot,
                          const PacketSlot &ps, const ExecResult &exec);

    void finalizeOldest();

    IRDetectorParams params_;
    IRPredictor &irPred;
    OperandRenameTable ort;
    Ring<ScopedTrace> scope; // oldest first; slots reused in place
    RemovalPlan computed;    // reused by every finalize
    StatGroup stats_;
    StatGroup::Handle statTracesProcessed{
        stats_.handle("traces_processed")};
    StatGroup::Handle statTriggerSv{stats_.handle("trigger_sv")};
    StatGroup::Handle statTriggerWw{stats_.handle("trigger_ww")};
    StatGroup::Handle statTriggerBr{stats_.handle("trigger_br")};
    StatGroup::Handle statInstructionsSeen{
        stats_.handle("instructions_seen")};
    StatGroup::Handle statInstructionsSelected{
        stats_.handle("instructions_selected")};
    StatGroup::Handle statIrvecMispredicts{
        stats_.handle("irvec_mispredicts")};
    StatGroup::Handle statResets{stats_.handle("resets")};
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_IR_DETECTOR_HH
