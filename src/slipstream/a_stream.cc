#include "slipstream/a_stream.hh"

#include "common/logging.hh"
#include "isa/regnames.hh"
#include "obs/trace_session.hh"

namespace slip
{

namespace
{
/** Walked-but-unpublished traces before A-stream fetch throttles. */
constexpr size_t kMaxPendingPackets = 32;
} // namespace

AStreamSource::AStreamSource(const Program &program,
                             TracePredictor &predictor,
                             IRPredictor &irPredictor,
                             RecoveryController &memPort,
                             DelayBuffer &delayBuffer, unsigned fetchWidth,
                             const TracePolicy &policy)
    : program(program), irPredictor(irPredictor),
      delayBuffer(delayBuffer), state_(memPort),
      frontEnd(program, predictor, policy), slicer(fetchWidth),
      stats_("a_stream")
{
    frontEnd.linkStats(stats_);
    stats_.link("traces_with_removal", numTracesWithRemoval);
    stats_.link("slots_removed", numSlotsRemoved);
    stats_.link("slots_executed", numSlotsExecuted);
    stats_.link("slots_fetch_skipped", numSlotsFetchSkipped);
    state_.setPc(program.entry());
    state_.writeReg(reg::sp, layout::kStackTop);
}

bool
AStreamSource::exhausted() const
{
    return haltWalked && slicer.empty();
}

unsigned
AStreamSource::pendingData() const
{
    unsigned total = 0;
    for (size_t i = 0; i < pending.size(); ++i)
        total += pending[i].packet.executedCount;
    return total;
}

bool
AStreamSource::canWalk() const
{
    if (pending.size() >= kMaxPendingPackets)
        return false;
    // Respect the data-flow buffer: stop running ahead once walked-
    // but-unconsumed value entries reach its capacity.
    if (pendingData() + delayBuffer.dataEntries() >=
        delayBuffer.params().dataCapacity) {
        return false;
    }
    return true;
}

bool
AStreamSource::nextBlock(FetchBlock &block)
{
    while (slicer.empty()) {
        if (haltWalked) {
            ++statStallHalted;
            return false;
        }
        if (stalled_) {
            ++statStallFault;
            return false;
        }
        if (!canWalk()) {
            ++statStallThrottled;
            return false;
        }
        walkTrace();
    }
    slicer.pop(block);
    return true;
}

void
AStreamSource::walkTrace()
{
    const Addr startPc = state_.pc();

    // --- trace selection, shared with the SS model ---
    const unsigned lengthCap = frontEnd.begin(startPc);

    // --- A-side fault injection: predictor state & stall faults ---
    if (faultInjector) {
        while (FaultRecord *rec = faultInjector->fire(
                   InjectPoint::ATraceStart, walkedSlots_)) {
            rec->pc = startPc;
            if (rec->plan.target == FaultTarget::IRPredictor) {
                // Flip a bit of the entry about to be consulted; a
                // live (valid) entry is a real victim.
                rec->injected = irPredictor.corruptEntry(
                    frontEnd.history(), frontEnd.guess(), rec->plan.bit);
            } else { // AStreamStall
                rec->injected = true;
                stalled_ = true;
            }
        }
        if (stalled_)
            return; // the front end is wedged; watchdog territory
    }

    // --- removal plan from the IR-predictor ---
    std::optional<RemovalPlan> plan =
        irPredictor.lookup(frontEnd.history(), frontEnd.guess());
    if (plan)
        ++numTracesWithRemoval;

    Packet &packet = walking; // recycled storage: reset every field
    packet.num = nextPacketNum++;
    packet.actualId = TraceId{};
    packet.actualId.startPc = startPc;
    packet.predictedIrVec = plan ? plan->irVec : 0;
    packet.slots.clear();
    packet.executedCount = 0;
    packet.endsWithHalt = false;
    TraceId &actual = packet.actualId;

    // Reserved to the longest trace, so the slots never move while
    // the packet is walked, queued or validated: the A core's
    // instructions point at them.
    const TracePolicy &policy = frontEnd.policy();
    packet.slots.reserve(policy.maxLen);
    const PacketSlot *const slotBase = packet.slots.data();

    // --- walk: execute non-removed slots on the A-stream context ---
    Addr pc = startPc;
    bool truncated = false;

    while (actual.length < lengthCap) {
        const unsigned slotIdx = actual.length;
        const uint64_t slotIndex = walkedSlots_++;
        const StaticInst &si = program.fetch(pc);

        // Defensive gating: never remove side-effecting or
        // trace-terminating instructions, whatever the plan says.
        const bool removable = !si.isHalt() && !si.isOutput() &&
                               !si.isIndirectJump();
        const bool removed =
            plan && plan->removes(slotIdx) && removable;

        PacketSlot &slot = packet.slots.emplace_back(pc, si);

        const bool predTaken =
            si.isCondBranch() && frontEnd.predictBranch(si);

        if (removed) {
            slot.executedInA = false;
            slot.removalReason = plan->reasonAt(slotIdx);
            ++numSlotsRemoved;

            // The packet path presumes the prediction is correct.
            slot.pathTaken =
                si.isCondBranch() ? predTaken : si.op == Opcode::JAL;
            frontEnd.noteCall(si, pc);
            const Addr nextPc = slot.pathTaken ? pc + si.imm * kInstBytes
                                               : pc + kInstBytes;
            slot.pathNextPc = nextPc;
            actual.append(si, slot.pathTaken);
            const Addr here = pc;
            pc = nextPc;
            // Trace boundaries must be path-consistent whether or not
            // the boundary instruction was removed.
            if (endsTraceAfter(policy, si, slot.pathTaken, here, nextPc))
                break;
            continue;
        }

        // Executed slot: real computation on the A-stream context.
        if (faultInjector) {
            while (FaultRecord *rec = faultInjector->fire(
                       InjectPoint::ASlot, slotIndex)) {
                // ARegister: flip one bit of an architectural
                // register just before this slot executes. The zero
                // register is hardwired — no victim there.
                const RegIndex r = rec->plan.reg % kNumRegs;
                rec->pc = pc;
                rec->injected = r != 0;
                state_.writeReg(r,
                                rec->plan.flip(state_.readReg(r)));
            }
        }
        state_.setPc(pc);
        executeMicro(state_, program.microAt(pc), &output_, slot.aExec);
        const ExecResult &exec = slot.aExec;
        ++numSlotsExecuted;

        slot.executedInA = true;
        slot.pathTaken = exec.isControl ? exec.taken : false;
        slot.pathNextPc = exec.nextPc;

        if (si.isCondBranch()) {
            if (predTaken != exec.taken)
                truncated = true; // A-stream-detectable misprediction
        } else {
            frontEnd.noteCall(si, pc);
        }
        actual.append(si, exec.taken);

        const bool structuralEnd =
            endsTraceAfter(policy, si, exec.taken, pc, exec.nextPc);
        if (si.isHalt()) {
            haltWalked = true;
            packet.endsWithHalt = true;
        }

        pc = exec.nextPc;

        if (truncated || structuralEnd)
            break;
    }

    SLIP_ASSERT(!packet.slots.empty(), "A-stream walked empty trace");
    SLIP_ASSERT(packet.slots.data() == slotBase,
                "packet slots reallocated during the walk");

    // --- second pass: fetch-level realization of the removal ---
    // Removed runs >= skipRunLength are skipped pre-fetch; shorter
    // runs are fetched and dropped pre-decode (fetchOnly).
    const unsigned skipRun = irPredictor.params().skipRunLength;
    const size_t n = packet.slots.size();
    {
        size_t i = 0;
        while (i < n) {
            if (!packet.slots[i].executedInA) {
                size_t j = i;
                while (j < n && !packet.slots[j].executedInA)
                    ++j;
                if (j - i >= skipRun) {
                    for (size_t k = i; k < j; ++k)
                        packet.slots[k].fetchSkipped = true;
                    numSlotsFetchSkipped += j - i;
                }
                i = j;
            } else {
                ++i;
            }
        }
    }

    unsigned executedCount = 0;

    for (size_t i = 0; i < n; ++i) {
        PacketSlot &slot = packet.slots[i];
        if (slot.fetchSkipped)
            continue;

        DynInst &d = slicer.append(slot.pc);
        d.pc = slot.pc;
        d.si = &program.fetch(slot.pc);
        d.packetSeq = packet.num;
        d.packetSlot = static_cast<uint8_t>(i);
        d.removalReason = slot.removalReason;

        if (!slot.executedInA) {
            d.fetchOnly = true;
            d.seq = 0; // never dispatched
        } else {
            d.seq = nextSeq++;
            d.setOutcome(slot.aExec);
            ++executedCount;
            // The final executed conditional branch of a truncated
            // trace is the one that mispredicted.
            if (truncated && i == n - 1)
                d.mispredicted = true;
        }

        slicer.seal();
    }
    slicer.finish();

    packet.executedCount = executedCount;

    // --- speculative history update & JALR target validation ---
    // A trace-ending indirect jump is never removed, so it is the
    // last instruction sliced.
    if (frontEnd.end(actual, packet.slots.back().si, pc, truncated))
        slicer.lastInst().mispredicted = true;

    if (plan) {
        SLIP_TRACE(obs::Category::Removal, obs::Name::RemovalApplied,
                   obs::Phase::Instant, packet.actualId.startPc,
                   packet.slots.size() - executedCount);
    }

    // The context continues at the packet path's end.
    state_.setPc(pc);

    PendingPacket &pp = pending.pushBack();
    std::swap(pp.packet, packet);
    pp.remainingRetires = executedCount;
}

void
AStreamSource::notifyRetire(const DynInst &d)
{
    for (size_t i = 0; i < pending.size(); ++i) {
        PendingPacket &pp = pending[i];
        if (pp.packet.num == d.packetSeq) {
            SLIP_ASSERT(pp.remainingRetires > 0,
                        "packet ", d.packetSeq, " over-retired");
            --pp.remainingRetires;
            return;
        }
    }
    // Packet already published (or dropped at recovery): fine.
}

void
AStreamSource::tryPublish()
{
    while (!pending.empty() && pending.front().remainingRetires == 0 &&
           delayBuffer.canPush(pending.front().packet.executedCount)) {
        delayBuffer.push(pending.front().packet);
        pending.popFront();
        ++statPacketsPublished;
    }
}

void
AStreamSource::recover(Addr pc, const ArchState &rState,
                       const PathHistory &rHistory)
{
    state_.copyRegsFrom(rState);
    state_.setPc(pc);
    frontEnd.resync(rHistory);
    slicer.clear();
    pending.clear();
    haltWalked = false;
    stalled_ = false; // a wedged front end restarts clean
    ++statRecoveries;
}

} // namespace slip
