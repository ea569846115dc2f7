#include "slipstream/r_stream.hh"

#include "common/logging.hh"
#include "isa/regnames.hh"

namespace slip
{

void
RStreamSource::applyFault(FaultRecord &rec, PacketSlot &slot,
                          const StaticInst &si, const ExecResult &exec,
                          ExecResult &rView, Addr rPc, bool pcDiverged)
{
    const FaultPlan &plan = rec.plan;
    const bool redundant = slot.executedInA && !pcDiverged;
    rec.pc = rPc;
    switch (plan.target) {
      case FaultTarget::AStream:
        rec.injected = true;
        rec.targetWasRedundant = redundant;
        if (redundant) {
            // Corrupt the communicated (A-side) copy.
            if (slot.aExec.wroteReg) {
                slot.aExec.destValue = plan.flip(slot.aExec.destValue);
            } else if (slot.si.isStore()) {
                slot.aExec.storeValue =
                    plan.flip(slot.aExec.storeValue);
            } else if (slot.aExec.isControl) {
                slot.aExec.taken = !slot.aExec.taken;
            }
        }
        // A fault aimed at the A-stream copy of a skipped
        // instruction has no victim: nothing was executed.
        break;
      case FaultTarget::RPipeline:
        rec.injected = true;
        rec.targetWasRedundant = redundant;
        if (redundant) {
            // Corrupt only the checker's view: detection will squash
            // and re-execute, so architectural state is written clean.
            if (rView.wroteReg) {
                rView.destValue = plan.flip(rView.destValue);
            } else if (si.isStore()) {
                rView.storeValue = plan.flip(rView.storeValue);
            } else if (rView.isControl) {
                rView.taken = !rView.taken;
            }
        } else {
            // Scenario #2: nothing to compare against — the corrupted
            // value silently reaches architectural state.
            if (exec.wroteReg) {
                state_.writeReg(exec.destReg,
                                plan.flip(exec.destValue));
            } else if (si.isStore()) {
                state_.mem().write(exec.memAddr, exec.memBytes,
                                   plan.flip(exec.storeValue));
            }
        }
        break;
      case FaultTarget::DelayBufferValue:
        // A payload corrupted in transit between the cores. Only
        // executed slots put a value payload in the buffer.
        if (redundant) {
            rec.targetWasRedundant = true;
            if (slot.aExec.wroteReg) {
                rec.injected = true;
                slot.aExec.destValue = plan.flip(slot.aExec.destValue);
            } else if (slot.aExec.isMem) {
                rec.injected = true;
                slot.aExec.memAddr = plan.flip(slot.aExec.memAddr);
            } else if (slot.aExec.isControl) {
                rec.injected = true;
                slot.aExec.taken = !slot.aExec.taken;
            }
            // Slots with no value payload (nop/output/halt) carry
            // nothing to corrupt: no victim.
        }
        break;
      case FaultTarget::DelayBufferBranch:
        // A communicated branch outcome flipped in transit: the
        // executed slot's computed direction, or a removed branch's
        // presumed path direction. Eligibility guarantees si is a
        // conditional branch; on a diverged path the slot's payload
        // is already dead, so there is no victim.
        if (!pcDiverged) {
            rec.injected = true;
            rec.targetWasRedundant = slot.executedInA;
            if (slot.executedInA)
                slot.aExec.taken = !slot.aExec.taken;
            else
                slot.pathTaken = !slot.pathTaken;
        }
        break;
      case FaultTarget::MemoryCell: {
        // Flip a bit in the authoritative memory cell this access
        // touches. Both streams read the corrupted cell, so the
        // redundancy sphere cannot catch it — ECC territory the
        // paper's §3 explicitly leaves uncovered.
        const Addr cell = exec.memAddr & ~Addr(7);
        state_.mem().write(cell, 8,
                           plan.flip(state_.mem().read(cell, 8)));
        rec.injected = true;
        rec.targetWasRedundant = false;
        break;
      }
      default:
        // A-side targets never reach the RSlot injection point.
        break;
    }
}

RStreamSource::RStreamSource(const Program &program, Memory &rMem,
                             DelayBuffer &delayBuffer, unsigned fetchWidth)
    : program(program), port(rMem), state_(port),
      delayBuffer(delayBuffer), slicer(fetchWidth),
      stats_("r_stream")
{
    state_.setPc(program.entry());
    state_.writeReg(reg::sp, layout::kStackTop);
}

bool
RStreamSource::exhausted() const
{
    return haltWalked && slicer.empty();
}

bool
RStreamSource::nextBlock(FetchBlock &block)
{
    while (slicer.empty()) {
        if (haltWalked || awaitingRecovery_) {
            ++(awaitingRecovery_ ? statStallRecovery
                                 : statStallHalted);
            return false;
        }
        if (delayBuffer.empty()) {
            ++statStallEmptyBuffer;
            return false;
        }
        walkPacket();
    }
    slicer.pop(block);
    return true;
}

bool
RStreamSource::slotMismatch(const PacketSlot &slot,
                            const ExecResult &rExec,
                            const ExecResult &aView) const
{
    if (rExec.wroteReg != aView.wroteReg)
        return true;
    if (rExec.wroteReg && rExec.destValue != aView.destValue)
        return true;
    if (slot.si.isLoad() || slot.si.isStore()) {
        if (rExec.memAddr != aView.memAddr)
            return true;
        if (slot.si.isStore() && rExec.storeValue != aView.storeValue)
            return true;
    }
    if (rExec.isControl) {
        if (rExec.taken != aView.taken)
            return true;
        if (rExec.taken && rExec.target != aView.target)
            return true;
    }
    return false;
}

void
RStreamSource::walkPacket()
{
    PacketRecord &record = records.pushBack(); // recycled storage
    delayBuffer.pop(record.packet);
    Packet &packet = record.packet;
    const uint64_t num = packet.num;
    std::vector<ExecResult> &rExec = record.rExec;
    rExec.clear();
    rExec.reserve(packet.slots.size());
    const ExecResult *const rExecBase = rExec.data();
    record.emitted = 0;
    record.retires = 0;

    bool divergence = false;
    ExecResult faulted; // the checker's view, once a fault corrupts it

    for (size_t i = 0; i < packet.slots.size() && !divergence; ++i) {
        PacketSlot &slot = packet.slots[i];
        const Addr rPc = state_.pc();

        // Packet path disagreeing with the R-stream's own path is a
        // divergence in itself (defensive catch-all: every legitimate
        // divergence is also caught at a compared outcome).
        const bool pcDiverged = rPc != slot.pc;

        // The R-stream executes its *own* next instruction — which is
        // the slot's instruction whenever the streams agree.
        const StaticInst &si = program.fetch(rPc);
        ExecResult &exec = rExec.emplace_back();
        executeMicro(state_, program.microAt(rPc), &output_, exec);

        const uint64_t dynIndex = walked++;

        // --- transient fault injection (paper §3 + campaign targets) ---
        const ExecResult *rView = &exec; // the value the checker sees
        FaultRecord *firedHere[kMaxCoincidentFaults];
        unsigned numFiredHere = 0;
        if (faultInjector) {
            while (numFiredHere < kMaxCoincidentFaults) {
                FaultRecord *rec =
                    faultInjector->fire(InjectPoint::RSlot, dynIndex,
                                        &si);
                if (!rec)
                    break;
                if (numFiredHere == 0) {
                    faulted = exec;
                    rView = &faulted;
                }
                firedHere[numFiredHere++] = rec;
                applyFault(*rec, slot, si, exec, faulted, rPc,
                           pcDiverged);
            }
        }

        // --- validation ---
        bool mismatch = pcDiverged;
        if (!mismatch && slot.executedInA) {
            mismatch = slotMismatch(slot, *rView, slot.aExec);
        } else if (!mismatch && !slot.executedInA) {
            // Removed instructions: presumed branch outcomes must hold.
            if (si.isCondBranch() && rView->taken != slot.pathTaken)
                mismatch = true;
        }

        DynInst &d = slicer.append(rPc);
        d.seq = nextSeq++;
        d.pc = rPc;
        d.si = &si;
        d.setOutcome(exec);
        d.valuePredicted = slot.executedInA && !pcDiverged;
        d.removalReason = slot.removalReason;
        d.packetSeq = num;
        d.packetSlot = static_cast<uint8_t>(i);
        d.triggersRecovery = mismatch;
        slicer.seal();

        ++record.emitted;

        if (mismatch) {
            divergence = true;
            awaitingRecovery_ = true;
            ++statDivergences;
            // A fault counts as detected only if the disagreement
            // surfaced at the faulted instruction itself; later
            // divergences caused by silently corrupted state recover
            // into the corrupted context (paper scenario #2).
            // MemoryCell faults are outside the sphere of replication
            // (both streams read the corrupted cell): a coincident
            // divergence is never *their* detection.
            for (unsigned k = 0; k < numFiredHere; ++k) {
                if (firedHere[k]->injected &&
                    firedHere[k]->plan.target != FaultTarget::MemoryCell)
                    firedHere[k]->detected = true;
            }
        }
        if (si.isHalt())
            haltWalked = true;
    }
    slicer.finish();
    SLIP_ASSERT(rExec.data() == rExecBase,
                "R outcomes reallocated under their instructions");

    record.divergent = divergence;
    ++statPacketsWalked;
}

void
RStreamSource::notifyRetire(const DynInst &d)
{
    while (!records.empty() && records.front().packet.num < d.packetSeq)
        records.popFront(); // stale: lost blocks to recover()
    if (records.empty() || records.front().packet.num != d.packetSeq)
        return;
    PacketRecord &rec = records.front();
    ++rec.retires;
    if (rec.retires < rec.emitted)
        return;
    if (!rec.divergent && onPacketRetired)
        onPacketRetired(rec.packet, rec.rExec);
    records.popFront();
}

void
RStreamSource::recover()
{
    awaitingRecovery_ = false;
    slicer.clear();
    ++statRecoveries;
}

} // namespace slip
