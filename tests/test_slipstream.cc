#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "common/random.hh"
#include "func/func_sim.hh"
#include "slipstream/slipstream_processor.hh"
#include "uarch/ss_processor.hh"

namespace slip
{
namespace
{

/**
 * A loop-heavy program with dead writes, same-value writes, and
 * predictable branches — prime slipstream material.
 */
const char *kRemovableProgram = R"(
.data
arr: .space 800
.text
main:
    la   a0, arr
    li   s0, 0
repeat:
    li   t0, 0
inner:
    slli t2, t0, 3
    add  t2, t2, a0
    ld   t3, 0(t2)
    add  s1, s1, t3
    addi t9, zero, 3    # dead: overwritten next iteration
    addi t0, t0, 1
    li   t4, 100
    blt  t0, t4, inner
    addi s0, s0, 1
    li   t4, 60
    blt  s0, t4, repeat
    putn s1
    halt
)";

std::string
golden(const Program &p)
{
    FuncSim sim(p);
    return sim.run().output;
}

TEST(Slipstream, OutputMatchesFunctionalSim)
{
    Program p = assemble(kRemovableProgram);
    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.output, golden(p));
}

TEST(Slipstream, TraceLengthOutsideOneTo64IsRefused)
{
    Program p = assemble(kRemovableProgram);
    for (unsigned len : {0u, 65u}) {
        SlipstreamParams params;
        params.tracePolicy.maxLen = len;
        EXPECT_THROW(SlipstreamProcessor(p, params), FatalError)
            << "length " << len;
    }

    // 64, the ablation's longest, runs: every slot of a 64-long trace
    // has its ir-vec bit and R-DFG node.
    for (bool loopEnds : {true, false}) {
        SlipstreamParams params;
        params.tracePolicy = TracePolicy{64, loopEnds};
        SlipstreamProcessor proc(p, params);
        const SlipstreamRunResult r = proc.run();
        EXPECT_TRUE(r.halted);
        EXPECT_EQ(r.output, golden(p));
    }
}

TEST(Slipstream, RemovesInstructionsWithConfidence)
{
    Program p = assemble(kRemovableProgram);
    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run();
    EXPECT_GT(r.removedFraction(), 0.2);
    // The A-stream retires meaningfully fewer instructions.
    EXPECT_LT(r.aRetired, r.rRetired);
    // Breakdown categories are populated.
    uint64_t total = 0;
    for (const auto &[name, count] : r.removedByReason)
        total += count;
    EXPECT_EQ(total, r.removedSlots);
}

TEST(Slipstream, IRMispredictionsAreRareWithConfidence)
{
    Program p = assemble(kRemovableProgram);
    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run();
    // Paper: < 0.05/1000 at threshold 32 on SPEC95. This program's
    // inner loop has a *fixed* trip count of 100, so its exit branch
    // is structurally unpredictable and its removal costs one type-1
    // recovery per lap (~1.2/1000) — cheap (near the 21-cycle
    // minimum) but counted. Bound well below the rate that would
    // indicate wrong-removal (type 2) recoveries.
    EXPECT_LT(r.irMispPer1000(), 2.0);
}

TEST(Slipstream, RecoveryPenaltyNearMinimumWhenTriggered)
{
    Program p = assemble(kRemovableProgram);
    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run();
    if (r.irMispredicts > 0) {
        EXPECT_GE(r.avgIRPenalty(), 21.0); // Table 2 minimum
        EXPECT_LT(r.avgIRPenalty(), 60.0);
    }
}

TEST(Slipstream, ReliableModeExecutesFullyRedundantly)
{
    Program p = assemble(kRemovableProgram);
    SlipstreamParams params;
    params.irPred.enabled = false; // AR-SMT style
    SlipstreamProcessor proc(p, params);
    const SlipstreamRunResult r = proc.run();
    EXPECT_EQ(r.output, golden(p));
    EXPECT_EQ(r.removedSlots, 0u);
    EXPECT_EQ(r.aRetired, r.rRetired);
    EXPECT_EQ(r.irMispredicts, 0u);
}

TEST(Slipstream, RecursiveProgramStaysCorrect)
{
    Program p = assemble(R"(
main:
    li   a0, 9
    call fib
    putn a1
    halt
fib:
    push ra
    li   t0, 2
    blt  a0, t0, base
    push a0
    addi a0, a0, -1
    call fib
    pop  a0
    push a1
    addi a0, a0, -2
    call fib
    pop  t1
    add  a1, a1, t1
    pop  ra
    ret
base:
    mv   a1, a0
    pop  ra
    ret
)");
    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run();
    EXPECT_EQ(r.output, "34\n");
}

// ---- adversarial predictors: recovery must preserve correctness ----

/** Removes every eligible instruction of every trace, always. */
class RemoveEverythingPredictor : public IRPredictor
{
  public:
    using IRPredictor::IRPredictor;

    std::optional<RemovalPlan>
    lookup(const PathHistory &, const TraceId &predicted) const override
    {
        RemovalPlan plan;
        plan.irVec = (uint64_t(1) << predicted.length) - 1;
        plan.reasons.assign(predicted.length, reason::kBR);
        return plan;
    }
};

/** Randomly removes ~30% of slots — stresses every recovery path. */
class RandomRemovalPredictor : public IRPredictor
{
  public:
    explicit RandomRemovalPredictor(uint64_t seed)
        : IRPredictor(IRPredictorParams{}), rng(seed)
    {
    }

    std::optional<RemovalPlan>
    lookup(const PathHistory &, const TraceId &predicted) const override
    {
        RemovalPlan plan;
        for (unsigned i = 0; i < predicted.length; ++i) {
            if (rng.chance(0.3))
                plan.irVec |= uint64_t(1) << i;
        }
        if (plan.irVec == 0)
            return std::nullopt;
        plan.reasons.assign(predicted.length, reason::kWW);
        return plan;
    }

  private:
    mutable Rng rng;
};

TEST(SlipstreamAdversarial, RemoveEverythingStillCorrect)
{
    Program p = assemble(kRemovableProgram);
    SlipstreamParams params;
    SlipstreamProcessor proc(
        p, params, std::make_unique<RemoveEverythingPredictor>());
    const SlipstreamRunResult r = proc.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.output, golden(p));
    EXPECT_GT(r.irMispredicts, 0u); // it definitely went wrong...
}

TEST(SlipstreamAdversarial, RandomRemovalStillCorrect)
{
    Program p = assemble(R"(
.data
buf: .space 256
.text
main:
    la   a0, buf
    li   s0, 0
loop:
    andi t0, s0, 31
    slli t0, t0, 3
    add  t0, t0, a0
    ld   t1, 0(t0)
    add  t1, t1, s0
    sd   t1, 0(t0)
    addi s0, s0, 1
    li   t2, 400
    blt  s0, t2, loop
    li   t0, 0
    li   t3, 0
sum:
    slli t1, t0, 3
    add  t1, t1, a0
    ld   t2, 0(t1)
    add  t3, t3, t2
    addi t0, t0, 1
    li   t4, 32
    blt  t0, t4, sum
    putn t3
    halt
)");
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        SlipstreamParams params;
        SlipstreamProcessor proc(
            p, params, std::make_unique<RandomRemovalPredictor>(seed));
        const SlipstreamRunResult r = proc.run();
        EXPECT_TRUE(r.halted) << "seed " << seed;
        EXPECT_EQ(r.output, golden(p)) << "seed " << seed;
    }
}

TEST(Slipstream, MaxCyclesBoundsRun)
{
    Program p = assemble("main: j main\n");
    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run(2000);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.cycles, 2000u);
}

TEST(Slipstream, TinyProgramTerminates)
{
    Program p = assemble("main: halt\n");
    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.rRetired, 1u);
}

} // namespace
} // namespace slip
