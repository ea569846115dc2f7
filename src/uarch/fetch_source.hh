/**
 * @file
 * Trace-predictor-driven instruction fetch for the conventional
 * superscalar models, plus the front end and the block slicer shared
 * with the slipstream A-stream source.
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
#include <vector>

#include "assembler/program.hh"
#include "common/ring.hh"
#include "func/arch_state.hh"
#include "func/executor.hh"
#include "isa/regnames.hh"
#include "mem/memory.hh"
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

/** Bounded return-address stack. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned depth = 32)
        : depth(depth)
    {}

    void
    push(Addr ra)
    {
        if (entries.size() == depth)
            entries.erase(entries.begin());
        entries.push_back(ra);
    }

    /** Pop the predicted return target; 0 if empty. */
    Addr
    pop()
    {
        if (entries.empty())
            return 0;
        const Addr ra = entries.back();
        entries.pop_back();
        return ra;
    }

    bool empty() const { return entries.empty(); }
    void clear() { entries.clear(); }

  private:
    unsigned depth;
    std::vector<Addr> entries;
};

/**
 * The trace-predictor front end every walk fetches through: the SS
 * walk and the slipstream A-stream walk each own one, so both models
 * predict control flow the same way. It owns the speculative path
 * history and the return-address stack. Per trace, a walk calls
 * begin(), then predictBranch() for each conditional branch and
 * noteCall() for each other instruction it walks, then end() with
 * the trace it actually walked.
 */
class TraceFrontEnd
{
  public:
    /** @throws FatalError unless policy.maxLen is in [1, kTraceLenLimit]. */
    TraceFrontEnd(const Program &program, TracePredictor &predictor,
                  const TracePolicy &policy);

    /**
     * Choose the guess for the trace starting at `startPc`: the
     * predicted trace if it starts there, else the static trace. The
     * prediction is the one the previous end() looked up, if it
     * checked an indirect jump, and a fresh lookup otherwise.
     * @return the most instructions the walk may take into the trace
     */
    unsigned begin(Addr startPc);

    /**
     * Predicted direction of the trace's next conditional branch `si`:
     * the guess's bit while it has one, backward-taken/forward-not-
     * taken past them.
     */
    bool
    predictBranch(const StaticInst &si)
    {
        const unsigned i = branchIdx++;
        return i < guess_.numBranches ? ((guess_.branchBits >> i) & 1) != 0
                                      : si.imm < 0;
    }

    /** `si` at `pc` was walked: a call pushes its return address. */
    void
    noteCall(const StaticInst &si, Addr pc)
    {
        if (si.rd == reg::ra &&
            (si.op == Opcode::JAL || si.isIndirectJump()))
            ras.push(pc + kInstBytes);
    }

    /**
     * The trace is walked: push it onto the history, and count it if a
     * branch in it `truncated` the walk. An untruncated trace ending
     * in an indirect jump `last` has its target `nextPc` checked
     * against the next trace's prediction (the RAS stands in for a
     * return the predictor has nothing for); the lookup is kept for
     * the next begin().
     * @return true if the front end mispredicted `last`'s target
     */
    bool end(const TraceId &actual, const StaticInst &last, Addr nextPc,
             bool truncated);

    /** Recovery: adopt `history`, forget the RAS and any lookup. */
    void resync(const PathHistory &history);

    /** Link the four counters into `stats` under their names. */
    void linkStats(StatGroup &stats);

    const TracePolicy &policy() const { return policy_; }
    const PathHistory &history() const { return history_; }
    /** The current trace's guess (valid from begin() on). */
    const TraceId &guess() const { return guess_; }

  private:
    const Program &program;
    TracePredictor &predictor;
    TracePolicy policy_;

    PathHistory history_;
    ReturnAddressStack ras;
    TraceId guess_;
    unsigned branchIdx = 0;
    std::optional<TraceId> cachedNext; // end()'s lookup, for begin()
    bool cachedNextValid = false;

    uint64_t tracesPredicted = 0;
    uint64_t tracesFallback = 0;
    uint64_t traceMispredicts = 0;
    uint64_t indirectMispredicts = 0;
};

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
    const ArchState &state() const { return state_; }
    StatGroup &stats() { return stats_; }

  private:
    /** Walk one full trace, appending its fetch blocks. */
    void walkTrace();

    const Program &program;
    TracePredictor &predictor;

    Memory mem;
    DirectMemPort port;
    ArchState state_;
    std::string output_;

    TraceFrontEnd frontEnd;
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
};

} // namespace slip

#endif // SLIPSTREAM_UARCH_FETCH_SOURCE_HH
