#include "slipstream/ir_detector.hh"

#include "common/logging.hh"
#include "isa/regnames.hh"

namespace slip
{

IRDetector::IRDetector(const IRDetectorParams &params, IRPredictor &irPred)
    : params_(params), irPred(irPred), scope(params.scopeTraces + 1),
      stats_("ir_detector")
{
}

IRDetector::ScopedTrace *
IRDetector::findScoped(uint64_t packetNum)
{
    for (size_t i = 0; i < scope.size(); ++i) {
        if (scope[i].packetNum == packetNum)
            return &scope[i];
    }
    return nullptr;
}

namespace
{

/** Instructions that must never be removed from the A-stream. */
bool
eligibleForRemoval(const StaticInst &si)
{
    if (si.isHalt() || si.isOutput())
        return false; // irreversible side effects
    if (si.isIndirectJump())
        return false; // trace terminator; target must be computed
    if (si.isJump() && si.destReg() != kNoReg)
        return false; // link-writing jumps removed only via chains
    return true;
}

} // namespace

void
IRDetector::processTrace(const RetiredTrace &trace)
{
    const Packet &p = *trace.packet;
    SLIP_ASSERT(trace.rExec->size() == p.slots.size(),
                "retired trace result/slot size mismatch");

    SLIP_ASSERT(trace.historyBefore, "retired trace missing history");
    ScopedTrace &st = scope.pushBack();
    st.packetNum = p.num;
    st.id = p.actualId;
    st.historyBefore = *trace.historyBefore;
    st.predictedIrVec = p.predictedIrVec;
    st.storeMask = 0;
    st.rdfg.reset(static_cast<unsigned>(p.slots.size()));

    for (unsigned slot = 0; slot < p.slots.size(); ++slot) {
        if (p.slots[slot].si.isStore())
            st.storeMask |= uint64_t(1) << slot;
        mergeInstruction(st, slot, p.slots[slot], (*trace.rExec)[slot]);
    }

    ++statTracesProcessed;

    while (scope.size() > params_.scopeTraces)
        finalizeOldest();
}

void
IRDetector::mergeInstruction(ScopedTrace &trace, unsigned slot,
                             const PacketSlot &ps, const ExecResult &exec)
{
    const StaticInst &si = ps.si;
    Rdfg &rdfg = trace.rdfg;
    const OrtProducer self{trace.packetNum, static_cast<uint8_t>(slot)};

    rdfg.setRemovable(slot, eligibleForRemoval(si));

    // --- source operands: dependence edges + ref bits ---
    const auto noteProducer = [&](const OrtProducer *prod) {
        if (!prod)
            return;
        if (prod->packetNum == trace.packetNum) {
            rdfg.addEdge(prod->slot, slot);
        } else if (ScopedTrace *other = findScoped(prod->packetNum)) {
            // Cross-trace consumer: pins the producer (back-
            // propagation never crosses a trace boundary, §2.1.3).
            other->rdfg.markExternalConsumer(prod->slot);
        }
    };

    RegIndex srcs[2];
    si.srcRegs(srcs);
    for (RegIndex s : srcs) {
        if (s != kNoReg && s != kZeroReg)
            noteProducer(ort.readReg(s));
    }
    if (si.isLoad())
        noteProducer(ort.readMem(exec.memAddr, exec.memBytes));

    // --- writes: non-modifying / unreferenced-write triggers ---
    const auto handleWrite = [&](const OrtWriteResult &w) {
        if (w.nonModifying) {
            if (params_.removeWrites) {
                rdfg.select(slot, reason::kSV);
                ++statTriggerSv;
            }
            return;
        }
        if (!w.killedValid)
            return;
        // The old producer's consumer set is complete.
        if (ScopedTrace *prodTrace = findScoped(w.killed.packetNum)) {
            if (w.killedUnreferenced && params_.removeWrites) {
                prodTrace->rdfg.select(w.killed.slot, reason::kWW);
                ++statTriggerWw;
            }
            prodTrace->rdfg.kill(w.killed.slot);
        }
    };

    if (si.isStore()) {
        // Note: a non-modifying *store* must not become the new
        // producer, which writeMem already guarantees.
        handleWrite(ort.writeMem(exec.memAddr, exec.memBytes,
                                 exec.storeValue, self));
    } else if (exec.wroteReg) {
        handleWrite(ort.writeReg(exec.destReg, exec.destValue, self));
    }

    // --- branch trigger: every branch is a removal candidate ---
    const bool brCandidate =
        si.isCondBranch() ||
        (si.isJump() && !si.isIndirectJump() && si.destReg() == kNoReg);
    if (brCandidate && params_.removeBranches) {
        rdfg.select(slot, reason::kBR);
        ++statTriggerBr;
    }
}

void
IRDetector::finalizeOldest()
{
    SLIP_ASSERT(!scope.empty(), "finalize on empty scope");
    ScopedTrace &st = scope.front();

    computed.irVec = st.rdfg.irVec();
    st.rdfg.reasonVector(computed.reasons);

    statInstructionsSeen += st.rdfg.numSlots();
    statInstructionsSelected +=
        popCount(computed.irVec);

    // A predicted-removed *store* the detector cannot confirm means
    // the A-stream may have skipped an effectual store: an
    // IR-misprediction (the paper's "time limit" on store-2 tracking,
    // §2.3). Unconfirmed register-write removals are not corruption
    // signals: a loop's final iteration legitimately leaves its
    // removed chain unkilled (the killers are in the never-executed
    // next iteration), misuse of a stale register is caught by the
    // R-stream's value comparison anyway, and the register file is
    // copied wholesale on every recovery. The differing computed
    // ir-vec still resets the entry's confidence via the update below.
    const uint64_t unconfirmed =
        st.predictedIrVec & ~computed.irVec & st.storeMask;
    if (unconfirmed != 0) {
        ++statIrvecMispredicts;
        irPred.resetEntry(st.historyBefore, st.id);
        if (onIRMispredict)
            onIRMispredict(st.packetNum);
    } else {
        if (onTraceVerified)
            onTraceVerified(st.packetNum);
    }

    irPred.update(st.historyBefore, st.id, computed);
    ort.invalidateProducer(st.packetNum);
    scope.popFront();
}

void
IRDetector::drain()
{
    while (!scope.empty())
        finalizeOldest();
}

void
IRDetector::reset()
{
    scope.clear();
    ort.reset();
    ++statResets;
}

} // namespace slip
