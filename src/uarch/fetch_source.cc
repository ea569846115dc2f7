#include "uarch/fetch_source.hh"

#include "common/logging.hh"
#include "isa/regnames.hh"

namespace slip
{

TraceId
buildStaticTrace(const Program &program, Addr startPc,
                 const TracePolicy &policy)
{
    TraceId id;
    id.startPc = startPc;
    Addr pc = startPc;

    while (id.length < policy.maxLen) {
        const Addr here = pc;
        const StaticInst &si = program.fetch(here);
        // Backward-taken / forward-not-taken static heuristic; direct
        // jumps are followed.
        const bool taken =
            si.isCondBranch() ? si.imm < 0 : si.op == Opcode::JAL;
        id.append(si, taken);
        pc = taken ? here + si.imm * kInstBytes : here + kInstBytes;
        if (endsTraceAfter(policy, si, taken, here, pc))
            break;
    }
    return id;
}

TraceFrontEnd::TraceFrontEnd(const Program &program,
                             TracePredictor &predictor,
                             const TracePolicy &policy)
    : program(program), predictor(predictor), policy_(policy)
{
    if (policy.maxLen < 1 || policy.maxLen > kTraceLenLimit)
        SLIP_FATAL("trace length ", policy.maxLen, " is outside [1, ",
                   kTraceLenLimit, "]");
}

unsigned
TraceFrontEnd::begin(Addr startPc)
{
    std::optional<TraceId> pred;
    if (cachedNextValid) {
        pred = cachedNext;
        cachedNextValid = false;
    } else {
        pred = predictor.predict(history_);
    }

    if (pred && pred->valid() && pred->startPc == startPc &&
        program.validPc(startPc)) {
        guess_ = *pred;
        ++tracesPredicted;
    } else {
        guess_ = buildStaticTrace(program, startPc, policy_);
        ++tracesFallback;
    }
    branchIdx = 0;
    return std::min<unsigned>(guess_.length, policy_.maxLen);
}

bool
TraceFrontEnd::end(const TraceId &actual, const StaticInst &last,
                   Addr nextPc, bool truncated)
{
    history_.push(actual);
    if (truncated) {
        ++traceMispredicts;
        return false;
    }
    if (!last.isIndirectJump())
        return false;

    // JALR target prediction: the next trace's start, or for a return
    // the predictor knows nothing about, the RAS.
    const std::optional<TraceId> next = predictor.predict(history_);
    const bool predicted = next && next->valid();
    const bool isReturn = last.rs1 == reg::ra && last.rd == reg::zero;
    Addr predictedTarget = 0;
    if (predicted)
        predictedTarget = next->startPc;
    else if (isReturn)
        predictedTarget = ras.pop();
    cachedNext = next;
    cachedNextValid = true;

    if (predictedTarget != nextPc) {
        ++indirectMispredicts;
        return true;
    }
    if (isReturn && predicted)
        ras.pop(); // the predictor supplied the target: keep balance
    return false;
}

void
TraceFrontEnd::resync(const PathHistory &history)
{
    history_ = history;
    ras.clear();
    cachedNextValid = false;
}

void
TraceFrontEnd::linkStats(StatGroup &stats)
{
    stats.link("traces_predicted", tracesPredicted);
    stats.link("traces_fallback", tracesFallback);
    stats.link("trace_mispredicts", traceMispredicts);
    stats.link("indirect_mispredicts", indirectMispredicts);
}

void
BlockSlicer::pop(FetchBlock &out)
{
    SLIP_ASSERT(!empty(), "no completed fetch block");
    FetchBlock &b = blocks.front();
    out.startAddr = b.startAddr;
    out.insts.swap(b.insts);
    blocks.popFront();
}

DynInst &
BlockSlicer::lastInst()
{
    SLIP_ASSERT(!blocks.empty() && !blocks.back().insts.empty(),
                "no instruction sliced");
    return blocks.back().insts.back();
}

void
BlockSlicer::clear()
{
    blocks.clear();
    open = false;
}

TraceFetchSource::TraceFetchSource(const Program &program,
                                   TracePredictor &predictor,
                                   unsigned fetchWidth,
                                   const TracePolicy &policy)
    : program(program), predictor(predictor), port(mem), state_(port),
      frontEnd(program, predictor, policy), slicer(fetchWidth),
      stats_("fetch_source")
{
    frontEnd.linkStats(stats_);
    program.loadInto(mem);
    state_.setPc(program.entry());
    state_.writeReg(reg::sp, layout::kStackTop);
}

TraceFetchSource::TraceFetchSource(const Program &program,
                                   TracePredictor &predictor,
                                   Memory &sharedMem,
                                   const ArchState &resumeFrom,
                                   unsigned fetchWidth,
                                   const TracePolicy &policy)
    : program(program), predictor(predictor), port(sharedMem),
      state_(port), frontEnd(program, predictor, policy),
      slicer(fetchWidth), stats_("fetch_source")
{
    frontEnd.linkStats(stats_);
    // Resume mode: the program image and data already live in
    // `sharedMem` (the slipstream R-stream ran there until now);
    // continue from the handed-over context instead of a cold start.
    state_.copyRegsFrom(resumeFrom);
    state_.setPc(resumeFrom.pc());
}

bool
TraceFetchSource::exhausted() const
{
    return haltWalked && slicer.empty();
}

bool
TraceFetchSource::nextBlock(FetchBlock &block)
{
    while (slicer.empty()) {
        if (haltWalked)
            return false;
        walkTrace();
    }
    slicer.pop(block);
    return true;
}

void
TraceFetchSource::walkTrace()
{
    const Addr startPc = state_.pc();
    const unsigned lengthCap = frontEnd.begin(startPc);

    const uint64_t traceNum = nextTraceNum++;
    PendingTrain &train = pendingTrain.pushBack(); // recycled slot
    train.traceNum = traceNum;
    train.history = frontEnd.history();

    // --- walk the trace, executing on the architectural state ---
    TraceId actual;
    actual.startPc = startPc;
    std::vector<ExecResult> &outcomes = train.outcomes;
    outcomes.clear();
    outcomes.reserve(frontEnd.policy().maxLen);
    const ExecResult *const outcomeBase = outcomes.data();

    bool truncated = false;

    while (actual.length < lengthCap) {
        const Addr pc = state_.pc();
        const StaticInst &si = program.fetch(pc);
        ExecResult &exec = outcomes.emplace_back();
        executeMicro(state_, program.microAt(pc), &output_, exec);

        DynInst &d = slicer.append(pc);
        d.seq = nextSeq++;
        d.pc = pc;
        d.si = &si;
        d.setOutcome(exec);
        d.packetSeq = traceNum;
        d.packetSlot = static_cast<uint8_t>(actual.length);
        actual.append(si, exec.taken);

        if (si.isCondBranch()) {
            if (frontEnd.predictBranch(si) != exec.taken) {
                d.mispredicted = true;
                truncated = true;
            }
        } else {
            frontEnd.noteCall(si, pc);
        }

        const bool structuralEnd = endsTraceAfter(
            frontEnd.policy(), si, exec.taken, pc, exec.nextPc);
        if (si.isHalt())
            haltWalked = true;

        slicer.seal();

        if (truncated || structuralEnd)
            break;
    }

    SLIP_ASSERT(actual.valid(), "walked an empty trace at pc 0x",
                std::hex, startPc);
    SLIP_ASSERT(outcomes.data() == outcomeBase,
                "trace outcomes reallocated under their instructions");
    DynInst &last = slicer.lastInst();
    train.actual = actual;
    train.lastSeq = last.seq;

    // The already-sliced jump takes the redirect if its target was
    // not the one predicted.
    if (frontEnd.end(actual, *last.si, state_.pc(), truncated))
        last.mispredicted = true;
    slicer.finish();
}

void
TraceFetchSource::notifyRetire(const DynInst &d)
{
    while (!pendingTrain.empty() &&
           pendingTrain.front().traceNum < d.packetSeq)
        pendingTrain.popFront(); // its last instruction never retires
    if (pendingTrain.empty())
        return;
    const PendingTrain &train = pendingTrain.front();
    if (train.traceNum != d.packetSeq || d.seq != train.lastSeq)
        return;
    predictor.update(train.history, train.actual);
    pendingTrain.popFront();
}

} // namespace slip
