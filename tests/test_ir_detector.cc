#include <gtest/gtest.h>

#include <vector>

#include "slipstream/ir_detector.hh"

namespace slip
{
namespace
{

/** Builds packets of hand-crafted retired instructions. */
class PacketBuilder
{
  public:
    explicit PacketBuilder(uint64_t num)
    {
        packet.num = num;
        packet.actualId.startPc = 0x1000 + num * 0x100;
    }

    /** rd = rs1 op rs2 producing `value`. */
    PacketBuilder &
    alu(RegIndex rd, Word value, RegIndex rs1 = 0, RegIndex rs2 = 0)
    {
        StaticInst si{Opcode::ADD, rd, rs1, rs2, 0};
        ExecResult r;
        r.wroteReg = rd != kZeroReg;
        r.destReg = rd;
        r.destValue = value;
        push(si, r);
        return *this;
    }

    PacketBuilder &
    store(Addr addr, Word value, RegIndex addrReg = 1,
          RegIndex dataReg = 2)
    {
        StaticInst si{Opcode::SD, 0, addrReg, dataReg, 0};
        ExecResult r;
        r.isMem = true;
        r.memAddr = addr;
        r.memBytes = 8;
        r.storeValue = value;
        push(si, r);
        return *this;
    }

    PacketBuilder &
    load(RegIndex rd, Addr addr, Word value, RegIndex addrReg = 1)
    {
        StaticInst si{Opcode::LD, rd, addrReg, 0, 0};
        ExecResult r;
        r.isMem = true;
        r.memAddr = addr;
        r.memBytes = 8;
        r.wroteReg = true;
        r.destReg = rd;
        r.destValue = value;
        r.loadedValue = value;
        push(si, r);
        return *this;
    }

    PacketBuilder &
    branch(bool taken, RegIndex rs1 = 3, RegIndex rs2 = 0)
    {
        StaticInst si{Opcode::BNE, 0, rs1, rs2, 4};
        ExecResult r;
        r.isControl = true;
        r.taken = taken;
        push(si, r);
        return *this;
    }

    PacketBuilder &
    halt()
    {
        push({Opcode::HALT, 0, 0, 0, 0}, ExecResult{});
        return *this;
    }

    PacketBuilder &
    predictedIrVec(uint64_t vec)
    {
        packet.predictedIrVec = vec;
        return *this;
    }

    RetiredTrace
    trace()
    {
        return RetiredTrace{&packet, &rExec, &history};
    }

    Packet packet;
    std::vector<ExecResult> rExec;
    PathHistory history;

  private:
    void
    push(const StaticInst &si, const ExecResult &r)
    {
        PacketSlot slot;
        slot.pc = 0x1000 + packet.slots.size() * 4;
        slot.si = si;
        slot.executedInA = true;
        slot.aExec = r;
        packet.slots.push_back(slot);
        rExec.push_back(r);
        ++packet.actualId.length;
    }
};

struct DetectorHarness
{
    explicit DetectorHarness(IRDetectorParams params = {})
        : irPred(lowThresholdParams()), detector(params, irPred)
    {
        detector.onIRMispredict = [this](uint64_t num) {
            mispredicts.push_back(num);
        };
        detector.onTraceVerified = [this](uint64_t num) {
            verified.push_back(num);
        };
    }

    static IRPredictorParams
    lowThresholdParams()
    {
        IRPredictorParams p;
        p.confidenceThreshold = 1;
        return p;
    }

    /** Drain and return the detector-computed plan for a packet. */
    RemovalPlan
    planFor(PacketBuilder &pb)
    {
        RemovalPlan out;
        // Probe the predictor after draining: two updates of the same
        // trace reach threshold 1.
        detector.processTrace(pb.trace());
        detector.drain();
        auto got = irPred.lookup(pb.history, pb.packet.actualId);
        if (got)
            out = *got;
        return out;
    }

    IRPredictor irPred;
    IRDetector detector;
    std::vector<uint64_t> mispredicts;
    std::vector<uint64_t> verified;
};

TEST(IRDetector, BranchesSelected)
{
    DetectorHarness h;
    PacketBuilder pb(0);
    pb.alu(5, 10).branch(true);
    h.detector.processTrace(pb.trace());
    h.detector.drain();
    EXPECT_EQ(h.detector.stats().get("trigger_br"), 1u);
}

TEST(IRDetector, NonModifyingWriteSelectedWithSV)
{
    DetectorHarness h;
    PacketBuilder pb(0);
    pb.alu(5, 100, 1, 2)  // slot 0: r5 = 100
        .alu(5, 100, 3, 4); // slot 1: r5 = 100 again -> SV
    // First pass: slot 1 is non-modifying. In steady state (the trace
    // repeating with the ORT already holding 100) slot 0 becomes
    // non-modifying too, so the stable ir-vec selects both; run three
    // passes so the steady-state pair clears threshold 1.
    for (uint64_t n = 0; n < 3; ++n) {
        PacketBuilder copy(n);
        copy.packet.actualId = pb.packet.actualId;
        copy.packet.slots = pb.packet.slots;
        copy.rExec = pb.rExec;
        h.detector.processTrace(copy.trace());
        h.detector.drain();
    }
    EXPECT_GE(h.detector.stats().get("trigger_sv"), 3u);

    auto plan = h.irPred.lookup(pb.history, pb.packet.actualId);
    ASSERT_TRUE(plan.has_value());
    EXPECT_TRUE(plan->removes(0));
    EXPECT_TRUE(plan->removes(1));
    EXPECT_EQ(plan->reasonAt(1) & reason::kSV, reason::kSV);
}

TEST(IRDetector, UnreferencedWriteSelectedWithWW)
{
    DetectorHarness h;
    PacketBuilder pb(0);
    pb.alu(5, 100) // slot 0: never read
        .alu(5, 200); // slot 1: overwrites -> slot 0 is WW
    h.detector.processTrace(pb.trace());
    h.detector.drain();
    EXPECT_EQ(h.detector.stats().get("trigger_ww"), 1u);
}

TEST(IRDetector, ReferencedWriteNotWW)
{
    DetectorHarness h;
    PacketBuilder pb(0);
    pb.alu(5, 100)      // slot 0
        .alu(6, 7, 5, 0)  // slot 1 reads r5
        .alu(5, 200);     // slot 2 kills slot 0 (referenced)
    h.detector.processTrace(pb.trace());
    h.detector.drain();
    EXPECT_EQ(h.detector.stats().get("trigger_ww"), 0u);
}

TEST(IRDetector, BackPropagationThroughBranchChain)
{
    // r5 = ... (slot 0) feeds only the branch (slot 1); when killed in
    // the same trace (slot 2), the producer inherits P:BR.
    DetectorHarness h;
    PacketBuilder pb(0);
    pb.alu(5, 1)          // slot 0: produces r5
        .branch(true, 5)    // slot 1: reads r5, BR-selected
        .alu(5, 9);         // slot 2: kills slot 0
    h.detector.processTrace(pb.trace());
    h.detector.drain();
    PacketBuilder pb2(1);
    pb2.packet.actualId = pb.packet.actualId;
    pb2.packet.slots = pb.packet.slots;
    pb2.rExec = pb.rExec;
    h.detector.processTrace(pb2.trace());
    h.detector.drain();

    auto plan = h.irPred.lookup(pb.history, pb.packet.actualId);
    ASSERT_TRUE(plan.has_value());
    EXPECT_TRUE(plan->removes(0));
    EXPECT_TRUE(plan->removes(1));
    EXPECT_EQ(plan->reasonAt(0),
              uint8_t(reason::kProp | reason::kBR));
    // Slot 2's write is live (not killed): not removed.
    EXPECT_FALSE(plan->removes(2));
}

TEST(IRDetector, CrossTraceConsumerPinsProducer)
{
    DetectorHarness h;
    PacketBuilder pb0(0);
    pb0.alu(5, 1); // producer in trace 0
    h.detector.processTrace(pb0.trace());

    PacketBuilder pb1(1);
    pb1.branch(true, 5) // trace 1 consumes r5 from trace 0
        .alu(5, 2);       // and kills it
    h.detector.processTrace(pb1.trace());
    h.detector.drain();

    // The producer was referenced across traces: kill must not
    // select it (back-propagation confined to a trace).
    EXPECT_EQ(h.detector.stats().get("trigger_ww"), 0u);
}

TEST(IRDetector, ScopeEvictionFinalizesOldest)
{
    IRDetectorParams params;
    params.scopeTraces = 2;
    DetectorHarness h(params);
    for (uint64_t i = 0; i < 3; ++i) {
        PacketBuilder pb(i);
        pb.alu(5, Word(i)).branch(true);
        h.detector.processTrace(pb.trace());
    }
    // 3 traces, scope 2: exactly one finalized so far.
    EXPECT_EQ(h.irPred.stats().get("updates"), 1u);
    h.detector.drain();
    EXPECT_EQ(h.irPred.stats().get("updates"), 3u);
}

TEST(IRDetector, PredictedRemovalConfirmedVerifiesTrace)
{
    DetectorHarness h;
    PacketBuilder pb(7);
    pb.branch(true).predictedIrVec(0b1); // branch removed: confirmable
    h.detector.processTrace(pb.trace());
    h.detector.drain();
    EXPECT_EQ(h.verified.size(), 1u);
    EXPECT_EQ(h.verified[0], 7u);
    EXPECT_TRUE(h.mispredicts.empty());
}

TEST(IRDetector, UnconfirmableStoreRemovalIsIRMispredict)
{
    DetectorHarness h;
    PacketBuilder pb(9);
    // A live (value-producing, never-confirmed) store was removed:
    // the A-stream may have skipped an effectual store.
    pb.store(0x2000, 7).predictedIrVec(0b1);
    h.detector.processTrace(pb.trace());
    h.detector.drain();
    ASSERT_EQ(h.mispredicts.size(), 1u);
    EXPECT_EQ(h.mispredicts[0], 9u);
    EXPECT_TRUE(h.verified.empty());
    EXPECT_EQ(h.detector.stats().get("irvec_mispredicts"), 1u);
}

TEST(IRDetector, UnconfirmableRegisterRemovalIsBenign)
{
    // A removed register write the detector cannot confirm (e.g. the
    // final iteration of a loop whose killing write never arrives) is
    // not a corruption signal: stale-register misuse surfaces as an
    // R-stream value mismatch and the register file is copied whole
    // on recovery. No recovery is requested; the entry's confidence
    // still resets through the normal update path.
    DetectorHarness h;
    PacketBuilder pb(11);
    pb.alu(5, 1).predictedIrVec(0b1);
    h.detector.processTrace(pb.trace());
    h.detector.drain();
    EXPECT_TRUE(h.mispredicts.empty());
    ASSERT_EQ(h.verified.size(), 1u);
    EXPECT_EQ(h.verified[0], 11u);
}

TEST(IRDetector, RemoveWritesKnob)
{
    IRDetectorParams params;
    params.removeWrites = false;
    DetectorHarness h(params);
    PacketBuilder pb(0);
    pb.alu(5, 100).alu(5, 100).alu(5, 200);
    h.detector.processTrace(pb.trace());
    h.detector.drain();
    EXPECT_EQ(h.detector.stats().get("trigger_sv"), 0u);
    EXPECT_EQ(h.detector.stats().get("trigger_ww"), 0u);
}

TEST(IRDetector, HaltAndOutputNeverRemovable)
{
    DetectorHarness h;
    PacketBuilder pb(0);
    // An unreferenced write pattern on a HALT-ish slot cannot select
    // it; build: halt + branch to confirm only branch is in irVec.
    pb.halt().branch(true);
    h.detector.processTrace(pb.trace());
    h.detector.drain();
    PacketBuilder pb2(1);
    pb2.packet.actualId = pb.packet.actualId;
    pb2.packet.slots = pb.packet.slots;
    pb2.rExec = pb.rExec;
    h.detector.processTrace(pb2.trace());
    h.detector.drain();
    auto plan = h.irPred.lookup(pb.history, pb.packet.actualId);
    ASSERT_TRUE(plan.has_value());
    EXPECT_FALSE(plan->removes(0));
    EXPECT_TRUE(plan->removes(1));
}

TEST(IRDetector, MemoryWWAcrossTraces)
{
    DetectorHarness h;
    PacketBuilder pb0(0);
    pb0.store(0x2000, 1); // never loaded
    h.detector.processTrace(pb0.trace());
    PacketBuilder pb1(1);
    pb1.store(0x2000, 2); // kills the first store
    h.detector.processTrace(pb1.trace());
    h.detector.drain();
    EXPECT_EQ(h.detector.stats().get("trigger_ww"), 1u);
}

TEST(IRDetector, ResetClearsScope)
{
    DetectorHarness h;
    PacketBuilder pb(0);
    pb.alu(5, 1);
    h.detector.processTrace(pb.trace());
    h.detector.reset();
    h.detector.drain(); // nothing to finalize
    EXPECT_EQ(h.irPred.stats().get("updates"), 0u);
}

} // namespace
} // namespace slip
