#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "func/func_sim.hh"
#include "slipstream/slipstream_processor.hh"

namespace slip
{
namespace
{

const char *kProgram = R"(
.data
arr: .space 2048
.text
main:
    la   a0, arr
    li   s5, 0              # outer repeats (program length ~15k)
again:
    li   s0, 0
fill:
    slli t0, s0, 3
    add  t0, t0, a0
    mul  t1, s0, s0
    sd   t1, 0(t0)
    addi t9, zero, 1     # removable bookkeeping
    addi s0, s0, 1
    li   t2, 256
    blt  s0, t2, fill
    li   s0, 0
    li   s1, 0
sum:
    slli t0, s0, 3
    add  t0, t0, a0
    ld   t1, 0(t0)
    add  s1, s1, t1
    addi s0, s0, 1
    li   t2, 256
    blt  s0, t2, sum
    addi s5, s5, 1
    li   t2, 4
    blt  s5, t2, again
    putn s1
    halt
)";

std::string
golden()
{
    Program p = assemble(kProgram);
    FuncSim sim(p);
    return sim.run().output;
}

SlipstreamRunResult
runWithFault(const FaultPlan &plan, bool reliableMode = false)
{
    Program p = assemble(kProgram);
    SlipstreamParams params;
    if (reliableMode)
        params.irPred.enabled = false;
    SlipstreamProcessor proc(p, params);
    proc.faultInjector().arm({plan});
    return proc.run();
}

/** The record of a run's one armed fault. */
const FaultRecord &
fault(const SlipstreamRunResult &r)
{
    return r.faultOutcome.records.at(0);
}

TEST(FaultTolerance, CleanRunHasNoFaultOutcome)
{
    Program p = assemble(kProgram);
    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run();
    EXPECT_TRUE(r.faultOutcome.records.empty());
    EXPECT_EQ(r.faultOutcome.numInjected, 0u);
    EXPECT_EQ(r.output, golden());
}

TEST(FaultTolerance, AStreamFaultDetectedAndRecovered)
{
    // Scenario #1, A-side: the fault corrupts the A-stream copy of a
    // redundantly executed instruction; the R-stream's independent
    // computation exposes it as a "misprediction".
    const SlipstreamRunResult r =
        runWithFault({FaultTarget::AStream, 500, 3}, true);
    ASSERT_TRUE(fault(r).injected);
    EXPECT_TRUE(fault(r).targetWasRedundant);
    EXPECT_TRUE(fault(r).detected);
    EXPECT_GE(r.irMispredicts, 1u);
    EXPECT_EQ(r.output, golden()); // transparently recovered
}

TEST(FaultTolerance, RPipelineFaultOnRedundantInstructionRecovered)
{
    // Scenario #1, R-side: the checker's view disagrees with the
    // A-stream value; squash and re-execute.
    const SlipstreamRunResult r =
        runWithFault({FaultTarget::RPipeline, 700, 17}, true);
    ASSERT_TRUE(fault(r).injected);
    EXPECT_TRUE(fault(r).targetWasRedundant);
    EXPECT_TRUE(fault(r).detected);
    EXPECT_EQ(r.output, golden());
}

TEST(FaultTolerance, FaultsAcrossManyInjectionPointsAllRecovered)
{
    // In reliable mode every instruction is redundant: any single
    // value fault must be detected and the output stay golden.
    const std::string want = golden();
    for (uint64_t idx : {50ull, 999ull, 6333ull, 13500ull}) {
        for (FaultTarget t :
             {FaultTarget::AStream, FaultTarget::RPipeline}) {
            const SlipstreamRunResult r =
                runWithFault({t, idx, unsigned(idx % 61)}, true);
            ASSERT_TRUE(fault(r).injected)
                << "idx " << idx;
            EXPECT_TRUE(fault(r).detected) << "idx " << idx;
            EXPECT_EQ(r.output, want) << "idx " << idx;
        }
    }
}

TEST(FaultTolerance, SkippedRegionFaultIsSilent)
{
    // Scenario #2: with slipstreaming ON, find an instruction the
    // A-stream skipped and hit its R-stream copy: nothing compares
    // against it, so the fault reaches architectural state
    // undetected. (The paper's coverage hole.)
    const std::string want = golden();
    bool foundSilent = false;
    // Scan injection points in the second lap's fill loop, where
    // confidence has built and the A-stream is skipping the dead
    // bookkeeping writes.
    for (uint64_t idx = 4600; idx < 5900 && !foundSilent; idx += 7) {
        const SlipstreamRunResult r =
            runWithFault({FaultTarget::RPipeline, idx, 0});
        if (!fault(r).injected)
            continue;
        if (fault(r).targetWasRedundant)
            continue;
        foundSilent = true;
        EXPECT_FALSE(fault(r).detected);
    }
    EXPECT_TRUE(foundSilent)
        << "no skipped-slot injection point found — removal absent?";
}

TEST(FaultTolerance, ReliableModeHasNoSilentVictims)
{
    // With removal disabled, every R instruction is compared: there
    // is no scenario-#2 hole.
    for (uint64_t idx = 100; idx < 14000; idx += 1721) {
        const SlipstreamRunResult r =
            runWithFault({FaultTarget::RPipeline, idx, 5}, true);
        if (!fault(r).injected)
            continue;
        EXPECT_TRUE(fault(r).targetWasRedundant) << idx;
        EXPECT_TRUE(fault(r).detected) << idx;
    }
}

TEST(FaultTolerance, FaultBeyondProgramNeverFires)
{
    const SlipstreamRunResult r =
        runWithFault({FaultTarget::RPipeline, 100'000'000, 1});
    EXPECT_FALSE(fault(r).injected);
    EXPECT_EQ(r.output, golden());
}

TEST(FaultTolerance, DelayBufferBranchFaultDetected)
{
    // A branch outcome flipped in transit between the cores: the
    // R-stream's own computation of the branch disagrees.
    const SlipstreamRunResult r =
        runWithFault({FaultTarget::DelayBufferBranch, 600, 0}, true);
    ASSERT_TRUE(fault(r).injected);
    EXPECT_TRUE(fault(r).detected);
    EXPECT_GE(r.irMispredicts, 1u);
    EXPECT_EQ(r.output, golden());
}

TEST(FaultTolerance, DelayBufferValueFaultDetected)
{
    // A value payload corrupted in transit is always compared against
    // the R-stream's redundant computation: always detectable.
    const SlipstreamRunResult r =
        runWithFault({FaultTarget::DelayBufferValue, 500, 7}, true);
    ASSERT_TRUE(fault(r).injected);
    EXPECT_TRUE(fault(r).targetWasRedundant);
    EXPECT_TRUE(fault(r).detected);
    EXPECT_EQ(r.output, golden());
}

TEST(FaultTolerance, ARegisterFaultHealedByRecovery)
{
    // Corrupt a live A-stream register (a0, the array base, read on
    // every iteration): the wrong values it produces disagree with
    // the R-stream, and the recovery resynchronizes the whole A
    // context — healing the register whatever else triggered it.
    const SlipstreamRunResult r = runWithFault(
        {FaultTarget::ARegister, 5000, 3, RegIndex(4)}, true);
    ASSERT_TRUE(fault(r).injected);
    EXPECT_TRUE(fault(r).detected);
    EXPECT_GE(r.irMispredicts, 1u);
    EXPECT_EQ(r.output, golden());
    // Detection latency was stamped by the repairing recovery.
    ASSERT_EQ(r.faultOutcome.records.size(), 1u);
    EXPECT_TRUE(r.faultOutcome.records[0].fired);
    EXPECT_GE(r.faultOutcome.records[0].detectCycle,
              r.faultOutcome.records[0].injectCycle);
}

TEST(FaultTolerance, IRPredictorFaultsNeverCorruptOutput)
{
    // Predictor SRAM corruption (confidence or ir-vec bits) can only
    // derail the A-stream; the R-stream's checks always repair it.
    const std::string want = golden();
    for (unsigned bit : {0u, 3u, 8u, 20u, 40u}) {
        const SlipstreamRunResult r =
            runWithFault({FaultTarget::IRPredictor, 4000, bit});
        EXPECT_TRUE(r.halted) << "bit " << bit;
        EXPECT_EQ(r.output, want) << "bit " << bit;
    }
}

TEST(FaultTolerance, MemoryCellFaultIsOutsideSphereOfReplication)
{
    // Both streams read the corrupted cell: redundancy cannot see it.
    // The run must still complete, and the fault must never be
    // counted as detected (the paper leaves main memory to ECC).
    const SlipstreamRunResult r =
        runWithFault({FaultTarget::MemoryCell, 5000, 2});
    EXPECT_TRUE(r.halted);
    ASSERT_TRUE(fault(r).injected);
    EXPECT_FALSE(fault(r).detected);
}

TEST(FaultTolerance, AStreamStallHealedByWatchdog)
{
    // A wedged A-stream front end starves the R-stream of delay
    // buffer packets; only the forward-progress watchdog can expose
    // it, and the forced recovery heals it.
    Program p = assemble(kProgram);
    SlipstreamParams params;
    params.watchdog.stallCycles = 2000;
    SlipstreamProcessor proc(p, params);
    proc.faultInjector().arm({{FaultTarget::AStreamStall, 3000, 0}});
    const SlipstreamRunResult r = proc.run();
    EXPECT_TRUE(r.halted);
    EXPECT_GE(r.watchdogTrips, 1u);
    ASSERT_TRUE(fault(r).injected);
    EXPECT_TRUE(fault(r).detected);
    EXPECT_EQ(r.output, golden());
}

TEST(FaultTolerance, ExhaustedWatchdogReportsHung)
{
    // With no trips allowed, a permanent stall ends the run as hung
    // instead of spinning forever.
    Program p = assemble(kProgram);
    SlipstreamParams params;
    params.watchdog.stallCycles = 1000;
    params.watchdog.maxTrips = 0;
    SlipstreamProcessor proc(p, params);
    proc.faultInjector().arm({{FaultTarget::AStreamStall, 3000, 0}});
    const SlipstreamRunResult r = proc.run();
    EXPECT_FALSE(r.halted);
    EXPECT_TRUE(r.hung);
    EXPECT_EQ(r.watchdogTrips, 1u);
}

TEST(FaultTolerance, CycleCapReportsHung)
{
    Program p = assemble(kProgram);
    SlipstreamProcessor proc(p);
    proc.faultInjector().arm({{FaultTarget::AStreamStall, 3000, 0}});
    const SlipstreamRunResult r = proc.run(30'000);
    EXPECT_FALSE(r.halted);
    EXPECT_TRUE(r.hung);
}

TEST(FaultTolerance, HighFaultRateDegradesToROnly)
{
    // A dense burst of A-side faults forces recovery after recovery;
    // past the threshold the processor sheds the A-stream and
    // finishes R-only — with the output still golden.
    Program p = assemble(kProgram);
    SlipstreamParams params;
    params.irPred.enabled = false; // reliable: every fault detected
    params.degrade.windowCycles = 100'000;
    params.degrade.recoveryThreshold = 4;
    SlipstreamProcessor proc(p, params);
    std::vector<FaultPlan> burst;
    for (uint64_t i = 0; i < 10; ++i)
        burst.push_back({FaultTarget::AStream, 4000 + 300 * i, 5});
    proc.faultInjector().arm(burst);
    const SlipstreamRunResult r = proc.run();
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.degraded);
    EXPECT_GT(r.degradedAtCycle, 0u);
    EXPECT_GT(r.rOnlyRetired, 0u);
    EXPECT_EQ(r.output, golden());
}

TEST(FaultTolerance, MultiFaultPlanRecordsEachFault)
{
    Program p = assemble(kProgram);
    SlipstreamParams params;
    params.irPred.enabled = false;
    SlipstreamProcessor proc(p, params);
    proc.faultInjector().arm(
        std::vector<FaultPlan>{{FaultTarget::AStream, 500, 3},
                               {FaultTarget::RPipeline, 4000, 11},
                               {FaultTarget::DelayBufferValue, 9000, 7}});
    const SlipstreamRunResult r = proc.run();
    EXPECT_EQ(r.faultOutcome.planned, 3u);
    EXPECT_EQ(r.faultOutcome.numInjected, 3u);
    EXPECT_EQ(r.faultOutcome.numDetected, 3u);
    EXPECT_EQ(r.output, golden());
    ASSERT_EQ(r.faultOutcome.records.size(), 3u);
    for (const FaultRecord &rec : r.faultOutcome.records) {
        EXPECT_TRUE(rec.fired);
        EXPECT_TRUE(rec.detected);
    }
}

} // namespace
} // namespace slip
