/**
 * @file
 * The A-stream (advanced stream) fetch source: the speculatively
 * shortened program (paper §2.1).
 *
 * The A-stream fetches along IR-predictor control flow: each predicted
 * trace comes with (when confidence is saturated) an ir-vec naming the
 * instructions to remove. Removed runs of at least `skipRunLength`
 * instructions are skipped before fetch via the entry's intermediate
 * PCs (no fetch bandwidth, no I-cache access); shorter removed runs
 * are fetched and dropped before decode. Everything else executes on
 * the A-stream's own architectural context — real values, possibly
 * wrong ones once an IR-misprediction has corrupted the context.
 *
 * Non-removed conditional branches are validated by the A-stream
 * itself (conventional speculation): a wrong direction truncates the
 * trace, redirects fetch, and charges the usual penalty. Removed
 * branches are presumed to follow the predicted path.
 *
 * Every walked trace becomes a delay-buffer packet carrying the
 * complete control history and the partial (executed-only) value
 * history; packets publish to the delay buffer as their instructions
 * retire from the A-stream core.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_A_STREAM_HH
#define SLIPSTREAM_SLIPSTREAM_A_STREAM_HH

#include "assembler/program.hh"
#include "common/ring.hh"
#include "func/arch_state.hh"
#include "slipstream/delay_buffer.hh"
#include "slipstream/fault_injector.hh"
#include "slipstream/ir_predictor.hh"
#include "slipstream/recovery_controller.hh"
#include "uarch/fetch_source.hh"
#include "uarch/trace_pred.hh"

namespace slip
{

/** The A-stream front end + speculative context. */
class AStreamSource : public FetchSource
{
  public:
    AStreamSource(const Program &program, TracePredictor &predictor,
                  IRPredictor &irPredictor, RecoveryController &memPort,
                  DelayBuffer &delayBuffer, unsigned fetchWidth = 16,
                  const TracePolicy &policy = {});

    bool nextBlock(FetchBlock &block) override;
    bool exhausted() const override;

    /**
     * A-stream core retire notification: when the last instruction of
     * a walked trace retires, its packet becomes eligible for
     * publication into the delay buffer.
     */
    void notifyRetire(const DynInst &d);

    /**
     * Publication pump: pushes retired packets into the delay buffer
     * as capacity allows. Call once per cycle.
     */
    void tryPublish();

    /**
     * Recovery: restart the A-stream at the R-stream's precise point.
     * The caller has already repaired memory (recovery controller) —
     * this resynchronizes PC, registers, path history, and discards
     * all walked-but-unpublished work.
     */
    void recover(Addr pc, const ArchState &rState,
                 const PathHistory &rHistory);

    ArchState &archState() { return state_; }
    StatGroup &stats() { return stats_; }
    const std::string &output() const { return output_; }

    /** Data entries walked but not yet published (throttle input). */
    unsigned pendingData() const;

    /** Optional transient-fault injection (A-side targets). */
    FaultInjector *faultInjector = nullptr;

    /** Front end wedged by an injected stall fault (watchdog heals). */
    bool stalled() const { return stalled_; }

  private:
    struct PendingPacket
    {
        Packet packet;
        unsigned remainingRetires = 0;
    };

    void walkTrace();
    bool canWalk() const;

    const Program &program;
    IRPredictor &irPredictor;
    DelayBuffer &delayBuffer;

    ArchState state_;
    std::string output_;

    TraceFrontEnd frontEnd;
    BlockSlicer slicer;
    // Walked packets awaiting publication. Packets move walk ->
    // pending -> delay buffer by swapping, so their slot vectors are
    // recycled rather than reallocated.
    Ring<PendingPacket> pending;
    Packet walking; // the trace being walked

    InstSeqNum nextSeq = 1;
    uint64_t nextPacketNum = 0;
    uint64_t walkedSlots_ = 0; // A-walk fault-index space
    bool haltWalked = false;
    bool stalled_ = false;

    StatGroup stats_;
    StatGroup::Handle statStallHalted{stats_.handle("stall_halted")};
    StatGroup::Handle statStallThrottled{
        stats_.handle("stall_throttled")};
    StatGroup::Handle statStallFault{stats_.handle("stall_fault")};
    // Per-slot and per-trace walk counters: plain integers on the hot
    // path, linked into stats_ so get()/dump() still see them by name.
    uint64_t numTracesWithRemoval = 0;
    uint64_t numSlotsRemoved = 0;
    uint64_t numSlotsExecuted = 0;
    uint64_t numSlotsFetchSkipped = 0;
    StatGroup::Handle statPacketsPublished{
        stats_.handle("packets_published")};
    StatGroup::Handle statRecoveries{stats_.handle("recoveries")};
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_A_STREAM_HH
