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
    : program(program), predictor(predictor), irPredictor(irPredictor),
      delayBuffer(delayBuffer), policy(policy),
      state_(memPort), slicer(fetchWidth), stats_("a_stream")
{
    stats_.link("traces_predicted", numTracesPredicted);
    stats_.link("traces_fallback", numTracesFallback);
    stats_.link("traces_with_removal", numTracesWithRemoval);
    stats_.link("slots_removed", numSlotsRemoved);
    stats_.link("slots_executed", numSlotsExecuted);
    stats_.link("slots_fetch_skipped", numSlotsFetchSkipped);
    stats_.link("indirect_mispredicts", numIndirectMispredicts);
    stats_.link("trace_mispredicts", numTraceMispredicts);
    stats_.link("traces_from_predictor", numTracesFromPredictor);
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

    // --- front-end trace selection (same scheme as the SS model) ---
    std::optional<TraceId> pred;
    if (cachedNextPredValid) {
        pred = cachedNextPred;
        cachedNextPredValid = false;
    } else {
        pred = predictor.predict(history);
    }

    TraceId guess;
    bool usedPrediction = false;
    if (pred && pred->valid() && pred->startPc == startPc &&
        program.validPc(startPc)) {
        guess = *pred;
        usedPrediction = true;
        ++numTracesPredicted;
    } else {
        guess = buildStaticTrace(program, startPc, policy);
        ++numTracesFallback;
    }

    // --- A-side fault injection: predictor state & stall faults ---
    if (faultInjector) {
        while (FaultRecord *rec = faultInjector->fire(
                   InjectPoint::ATraceStart, walkedSlots_)) {
            rec->pc = startPc;
            if (rec->plan.target == FaultTarget::IRPredictor) {
                // Flip a bit of the entry about to be consulted; a
                // live (valid) entry is a real victim.
                rec->injected = irPredictor.corruptEntry(
                    history, guess, rec->plan.bit);
            } else { // AStreamStall
                rec->injected = true;
                stalled_ = true;
            }
        }
        if (stalled_)
            return; // the front end is wedged; watchdog territory
    }

    // --- removal plan from the IR-predictor ---
    std::optional<RemovalPlan> plan = irPredictor.lookup(history, guess);
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

    const unsigned lengthCap =
        std::min<unsigned>(guess.length ? guess.length : policy.maxLen,
                           policy.maxLen);
    // Reserved to the longest trace, so the slots never move while
    // the packet is walked, queued or validated: the A core's
    // instructions point at them.
    packet.slots.reserve(policy.maxLen);
    const PacketSlot *const slotBase = packet.slots.data();

    // --- walk: execute non-removed slots on the A-stream context ---
    unsigned branchIdx = 0;
    Addr pc = startPc;
    bool truncated = false;
    bool structuralEnd = false;

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
            si.isCondBranch()
                ? (branchIdx < guess.numBranches
                       ? ((guess.branchBits >> branchIdx) & 1) != 0
                       : si.imm < 0)
                : false;

        if (removed) {
            slot.executedInA = false;
            slot.removalReason = plan->reasonAt(slotIdx);
            ++numSlotsRemoved;

            // The packet path presumes the prediction is correct.
            Addr nextPc = pc + kInstBytes;
            if (si.isCondBranch()) {
                ++branchIdx;
                if (predTaken) {
                    actual.branchBits |= uint64_t(1) << actual.numBranches;
                    nextPc = pc + si.imm * kInstBytes;
                }
                ++actual.numBranches;
                slot.pathTaken = predTaken;
            } else if (si.op == Opcode::JAL) {
                nextPc = pc + si.imm * kInstBytes;
                slot.pathTaken = true;
                if (si.rd == reg::ra)
                    ras.push(pc + kInstBytes);
            }
            slot.pathNextPc = nextPc;
            ++actual.length;
            const Addr here = pc;
            pc = nextPc;
            // Trace boundaries must be path-consistent whether or not
            // the boundary instruction was removed.
            if (endsTraceAfter(policy, si, slot.pathTaken, here, nextPc)) {
                structuralEnd = true;
                break;
            }
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
            ++branchIdx;
            if (exec.taken)
                actual.branchBits |= uint64_t(1) << actual.numBranches;
            ++actual.numBranches;
            if (predTaken != exec.taken)
                truncated = true; // A-stream-detectable misprediction
        } else if (si.op == Opcode::JAL && si.rd == reg::ra) {
            ras.push(pc + kInstBytes);
        } else if (si.isIndirectJump() && si.rd == reg::ra) {
            ras.push(pc + kInstBytes);
        }

        if (endsTraceAfter(policy, si, exec.taken, pc, exec.nextPc))
            structuralEnd = true;
        if (si.isHalt()) {
            haltWalked = true;
            packet.endsWithHalt = true;
        }

        ++actual.length;
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

    bool anyEmitted = false;
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
        anyEmitted = true;
    }
    slicer.finish();

    packet.executedCount = executedCount;

    // --- speculative history update & JALR target validation ---
    history.push(actual);

    if (!haltWalked && !truncated && anyEmitted &&
        slicer.lastInst().si->isIndirectJump()) {
        DynInst &lastEmitted = slicer.lastInst();
        const Addr actualNext = pc;
        std::optional<TraceId> next = predictor.predict(history);
        Addr predictedTarget = 0;
        if (next && next->valid()) {
            predictedTarget = next->startPc;
        } else if (lastEmitted.si->rs1 == reg::ra &&
                   lastEmitted.si->rd == reg::zero) {
            predictedTarget = ras.pop();
        }
        if (predictedTarget != actualNext) {
            ++numIndirectMispredicts;
            lastEmitted.mispredicted = true;
        } else if (lastEmitted.si->rs1 == reg::ra &&
                   lastEmitted.si->rd == reg::zero && next &&
                   next->valid()) {
            ras.pop();
        }
        cachedNextPred = next;
        cachedNextPredValid = true;
    }

    if (truncated)
        ++numTraceMispredicts;
    if (usedPrediction)
        ++numTracesFromPredictor;

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
    history.copyFrom(rHistory);
    ras.clear();
    cachedNextPredValid = false;
    slicer.clear();
    pending.clear();
    haltWalked = false;
    stalled_ = false; // a wedged front end restarts clean
    ++statRecoveries;
}

} // namespace slip
