/**
 * @file
 * Trace-predictor-driven instruction fetch for the conventional
 * superscalar models, plus the walk/slice helpers shared with the
 * slipstream A-stream source.
 *
 * The model is execution-driven and correct-path-only: the source
 * walks the program functionally, slot by slot, following the
 * *predicted* trace; the first conditional branch whose predicted
 * direction disagrees with its executed outcome truncates the trace
 * and is marked mispredicted (the core charges the redirect penalty).
 * Indirect-jump targets are validated against the next-trace
 * prediction (with a return-address stack assisting cold starts).
 *
 * The same trace predictor serves all processor models, as in the
 * paper's evaluation ("the same trace predictor is used for accurate
 * and high-bandwidth control flow prediction in all three processor
 * models").
 */

#ifndef SLIPSTREAM_UARCH_FETCH_SOURCE_HH
#define SLIPSTREAM_UARCH_FETCH_SOURCE_HH

#include <optional>

#include "assembler/program.hh"
#include "common/ring.hh"
#include "func/arch_state.hh"
#include "func/executor.hh"
#include "mem/memory.hh"
#include "uarch/branch_pred.hh"
#include "uarch/core.hh"
#include "uarch/trace.hh"
#include "uarch/trace_pred.hh"

namespace slip
{

/**
 * Statically construct the trace starting at `startPc`: conditional
 * branches follow the backward-taken/forward-not-taken heuristic,
 * direct jumps are followed, and the trace ends per the standard
 * policy (max length, JALR, HALT). Used when the trace predictor has
 * no prediction for the current path.
 */
TraceId buildStaticTrace(const Program &program, Addr startPc,
                         const TracePolicy &policy = {});

/**
 * Slices a stream of walked instructions into fetch blocks and queues
 * them for the core: a block ends at taken control flow, at
 * fetch-width capacity, at any discontinuity in the fetch address
 * (A-stream skip points), and after a mispredicted instruction (core
 * contract). Walks build each instruction in place in the open block
 * (append, fill in, seal). Block storage is recycled: handing a block
 * to the core trades instruction vectors with the core's consumed
 * block, so a steady-state walk allocates nothing.
 */
class BlockSlicer
{
  public:
    explicit BlockSlicer(unsigned maxBlock)
        : maxBlock(maxBlock)
    {}

    /**
     * Append one default-constructed instruction to the open block
     * (first closing it at a fetch discontinuity or at capacity) and
     * return it for the caller to fill in; seal() completes it.
     * @param fetchAddr the address the front end fetches this
     *        instruction from (== pc in every current model)
     */
    DynInst &
    append(Addr fetchAddr)
    {
        const bool discontinuous = open && fetchAddr != nextAddr;
        if (open &&
            (discontinuous || blocks.back().insts.size() >= maxBlock))
            finish();

        if (!open) {
            FetchBlock &b = blocks.pushBack(); // recycled storage
            b.startAddr = fetchAddr;
            b.insts.clear();
            b.insts.reserve(maxBlock);
            open = true;
        }
        nextAddr = fetchAddr + kInstBytes;
        return blocks.back().insts.emplace_back();
    }

    /**
     * The appended instruction is filled in: close its block after it
     * if it is taken control flow, mispredicted, or HALT (the core
     * must not see past a front-end redirect point).
     */
    void
    seal()
    {
        const DynInst &d = blocks.back().insts.back();
        if (d.takenControl || d.mispredicted || d.si->isHalt())
            finish();
    }

    /** Close the in-progress block (end of trace). */
    void finish() { open = false; }

    /** No completed block is waiting. */
    bool empty() const { return blocks.size() == (open ? 1u : 0u); }

    /** Hand the oldest completed block to the core. */
    void pop(FetchBlock &out);

    /** The most recently appended instruction. */
    DynInst &lastInst();

    /** Drop every queued block (recovery). */
    void clear();

  private:
    unsigned maxBlock;
    Ring<FetchBlock> blocks{kMaxTraceLen}; // completed, then the open one
    Addr nextAddr = 0; // expected fetchAddr for sequential flow
    bool open = false;
};

/**
 * Fetch source for a conventional superscalar processor (the SS(64x4)
 * and SS(128x8) models): full program, trace-predictor control flow,
 * self-training at retirement.
 */
class TraceFetchSource : public FetchSource
{
  public:
    TraceFetchSource(const Program &program, TracePredictor &predictor,
                     unsigned fetchWidth = 16,
                     const TracePolicy &policy = {});

    /**
     * Resume-mode source (slipstream graceful degradation): walk the
     * program on an *external* memory image, continuing from
     * `resumeFrom`'s registers and PC instead of loading a fresh
     * image and cold-starting at the entry point.
     */
    TraceFetchSource(const Program &program, TracePredictor &predictor,
                     Memory &sharedMem, const ArchState &resumeFrom,
                     unsigned fetchWidth = 16,
                     const TracePolicy &policy = {});

    bool nextBlock(FetchBlock &block) override;
    bool exhausted() const override;

    /**
     * Must be called from the core's retire hook for every retired
     * instruction: trains the trace predictor with the actual trace
     * once its last instruction retires (modeling update latency).
     * The core retires in program order and trace numbers only grow,
     * so the pending trace is always at the front of a walk-ordered
     * ring; an older front entry can never train and is dropped.
     *
     * Each trace's record also owns the outcomes its instructions'
     * `exec` point at, so it releases them: a retire observer reads
     * `d.exec` before calling this.
     */
    void notifyRetire(const DynInst &d);

    const std::string &output() const { return output_; }
    Memory &memory() { return mem; }
    const ArchState &state() const { return state_; }
    StatGroup &stats() { return stats_; }

  private:
    /** Walk one full trace, appending its fetch blocks. */
    void walkTrace();

    const Program &program;
    TracePredictor &predictor;
    unsigned fetchWidth;
    TracePolicy policy;

    Memory mem;
    DirectMemPort port;
    ArchState state_;
    std::string output_;

    PathHistory history;
    ReturnAddressStack ras;
    std::optional<TraceId> cachedNextPred; // consumed by next walk
    bool cachedNextPredValid = false;

    BlockSlicer slicer;

    InstSeqNum nextSeq = 1;
    uint64_t nextTraceNum = 0;
    bool haltWalked = false;

    /**
     * Pending predictor training, one per walked trace, and the
     * functional outcomes of the trace's instructions. `outcomes` is
     * reserved to the maximum trace length before the walk, and the
     * ring moves records only by swap, so the instructions' `exec`
     * pointers into it stay valid until the record is reused.
     */
    struct PendingTrain
    {
        uint64_t traceNum = 0;
        PathHistory history; // history *before* this trace
        TraceId actual;
        InstSeqNum lastSeq = 0;
        std::vector<ExecResult> outcomes; // one per walked instruction
    };
    Ring<PendingTrain> pendingTrain; // walk order, oldest first

    StatGroup stats_;
    StatGroup::Handle statTracesPredicted{
        stats_.handle("traces_predicted")};
    StatGroup::Handle statTracesFallback{
        stats_.handle("traces_fallback")};
    StatGroup::Handle statTraceMispredicts{
        stats_.handle("trace_mispredicts")};
    StatGroup::Handle statIndirectMispredicts{
        stats_.handle("indirect_mispredicts")};
};

} // namespace slip

#endif // SLIPSTREAM_UARCH_FETCH_SOURCE_HH
