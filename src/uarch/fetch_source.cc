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
        ++id.length;

        bool taken = false;
        if (si.isCondBranch()) {
            // Backward-taken / forward-not-taken static heuristic.
            taken = si.imm < 0;
            if (taken && id.numBranches < 64)
                id.branchBits |= 1ull << id.numBranches;
            ++id.numBranches;
            pc = taken ? here + si.imm * kInstBytes : here + kInstBytes;
        } else if (si.op == Opcode::JAL) {
            taken = true;
            pc = here + si.imm * kInstBytes;
        } else {
            pc = here + kInstBytes;
        }
        if (endsTraceAfter(policy, si, taken, here, pc))
            break;
    }
    return id;
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
    : program(program), predictor(predictor), fetchWidth(fetchWidth),
      policy(policy), port(mem), state_(port),
      slicer(fetchWidth), stats_("fetch_source")
{
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
    : program(program), predictor(predictor), fetchWidth(fetchWidth),
      policy(policy), port(sharedMem), state_(port),
      slicer(fetchWidth), stats_("fetch_source")
{
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

    // --- choose the front end's guess for this trace ---
    std::optional<TraceId> pred;
    if (cachedNextPredValid) {
        pred = cachedNextPred;
        cachedNextPredValid = false;
    } else {
        pred = predictor.predict(history);
    }

    TraceId guess;
    if (pred && pred->valid() && pred->startPc == startPc &&
        program.validPc(startPc)) {
        guess = *pred;
        ++statTracesPredicted;
    } else {
        guess = buildStaticTrace(program, startPc, policy);
        ++statTracesFallback;
    }

    const uint64_t traceNum = nextTraceNum++;
    PendingTrain &train = pendingTrain.pushBack(); // recycled slot
    train.traceNum = traceNum;
    train.history = history;

    // --- walk the trace, executing on the architectural state ---
    TraceId actual;
    actual.startPc = startPc;
    unsigned branchIdx = 0;
    const unsigned lengthCap =
        std::min<unsigned>(guess.length ? guess.length : policy.maxLen,
                           policy.maxLen);
    std::vector<ExecResult> &outcomes = train.outcomes;
    outcomes.clear();
    outcomes.reserve(policy.maxLen);
    const ExecResult *const outcomeBase = outcomes.data();

    bool anyEmitted = false;
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
        ++actual.length;

        if (si.isCondBranch()) {
            const bool predTaken =
                branchIdx < guess.numBranches
                    ? ((guess.branchBits >> branchIdx) & 1) != 0
                    : si.imm < 0; // BTFN beyond known bits
            ++branchIdx;
            if (exec.taken && actual.numBranches < 64)
                actual.branchBits |= 1ull << actual.numBranches;
            ++actual.numBranches;
            if (predTaken != exec.taken) {
                d.mispredicted = true;
                truncated = true;
            }
        } else if (si.op == Opcode::JAL && si.rd == reg::ra) {
            ras.push(pc + kInstBytes); // call: remember return address
        } else if (si.isIndirectJump() && si.rd == reg::ra) {
            ras.push(pc + kInstBytes); // indirect call
        }

        const bool structuralEnd =
            endsTraceAfter(policy, si, exec.taken, pc, exec.nextPc);
        if (si.isHalt())
            haltWalked = true;

        slicer.seal();
        anyEmitted = true;

        if (truncated || structuralEnd)
            break;
    }

    SLIP_ASSERT(anyEmitted, "walked an empty trace at pc 0x", std::hex,
                startPc);
    SLIP_ASSERT(outcomes.data() == outcomeBase,
                "trace outcomes reallocated under their instructions");
    DynInst &last = slicer.lastInst();

    // --- update speculative history with the actual trace ---
    history.push(actual);
    train.actual = actual;
    train.lastSeq = last.seq;

    if (truncated)
        ++statTraceMispredicts;

    if (haltWalked) {
        slicer.finish();
        return;
    }

    // --- validate the next fetch address (JALR target prediction) ---
    const Addr actualNext = state_.pc();
    const StaticInst &lastSi = *last.si;
    if (lastSi.isIndirectJump() && !truncated) {
        std::optional<TraceId> next = predictor.predict(history);
        Addr predictedTarget = 0;
        if (next && next->valid()) {
            predictedTarget = next->startPc;
        } else if (lastSi.rs1 == reg::ra && lastSi.rd == reg::zero) {
            predictedTarget = ras.pop(); // return: use the RAS
        }
        if (predictedTarget != actualNext) {
            // The front end could not know the target: charge a
            // misprediction on the indirect jump itself.
            ++statIndirectMispredicts;
            // Patch the already-sliced last instruction.
            last.mispredicted = true;
        } else if (lastSi.rs1 == reg::ra && lastSi.rd == reg::zero &&
                   next && next->valid()) {
            // Predictor supplied the target; keep the RAS balanced.
            ras.pop();
        }
        cachedNextPred = next;
        cachedNextPredValid = true;
    }

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
