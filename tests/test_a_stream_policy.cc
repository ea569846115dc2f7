/**
 * A-stream shortening policies: name/parse round trips, the strip
 * semantics of the reliability policy, its post-recovery cooldown,
 * per-policy end-to-end correctness on a real program, and the
 * reliability oracle — the reliability policy must never publish a
 * delay-buffer packet carrying data, even under a forced
 * IR-misprediction.
 */

#include <gtest/gtest.h>

#include <string>

#include "assembler/assembler.hh"
#include "func/func_sim.hh"
#include "slipstream/a_stream_policy.hh"
#include "slipstream/slipstream_processor.hh"

namespace slip
{
namespace
{

TEST(AStreamPolicy, NamesParseRoundTrip)
{
    EXPECT_STREQ(aStreamPolicyName(AStreamPolicyKind::IRRemoval),
                 "ir");
    EXPECT_STREQ(aStreamPolicyName(AStreamPolicyKind::Reliability),
                 "reliability");

    for (unsigned i = 0; i < kNumAStreamPolicies; ++i) {
        AStreamPolicyKind parsed;
        ASSERT_TRUE(parseAStreamPolicy(
            aStreamPolicyName(AStreamPolicyKind(i)), parsed));
        EXPECT_EQ(parsed, AStreamPolicyKind(i));
    }
    AStreamPolicyKind dummy;
    EXPECT_FALSE(parseAStreamPolicy("turbo", dummy));
    EXPECT_FALSE(parseAStreamPolicy("", dummy));
    EXPECT_FALSE(parseAStreamPolicy("IR", dummy));
    // Policies an older build offered are not names any more.
    EXPECT_FALSE(parseAStreamPolicy("runahead", dummy));
    EXPECT_FALSE(parseAStreamPolicy("filtered", dummy));
}

/** A packet with `executed` value-carrying slots out of `slots`. */
Packet
packetOf(unsigned slots, unsigned executed)
{
    Packet p;
    p.num = 1;
    p.actualId = TraceId{0x1000, 0, 0, uint8_t(slots)};
    p.slots.resize(slots);
    for (unsigned i = 0; i < slots; ++i) {
        PacketSlot &slot = p.slots[i];
        slot.pc = 0x1000 + 4 * i;
        slot.si = StaticInst{Opcode::ADDI, RegIndex(5), RegIndex(6),
                             RegIndex(0), 1};
        if (i < executed) {
            slot.executedInA = true;
            slot.aExec.destValue = 0xdead0000 + i;
        }
        slot.pathTaken = (i % 2) == 0;
        slot.pathNextPc = slot.pc + 4;
    }
    p.executedCount = executed;
    return p;
}

TEST(AStreamPolicy, ReliabilityStripsValuesButKeepsPath)
{
    AStreamPolicyParams params;
    params.kind = AStreamPolicyKind::Reliability;
    AStreamPolicy policy(params);

    Packet p = packetOf(6, 4);
    policy.onPacketComplete(p);

    EXPECT_EQ(p.executedCount, 0u);
    for (unsigned i = 0; i < p.slots.size(); ++i) {
        const PacketSlot &slot = p.slots[i];
        EXPECT_FALSE(slot.executedInA) << i;
        EXPECT_EQ(slot.aExec.destValue, 0u) << i;
        // Path info survives: direction-only validation needs it.
        EXPECT_EQ(slot.pathTaken, (i % 2) == 0) << i;
        EXPECT_EQ(slot.pathNextPc, slot.pc + 4) << i;
    }
    EXPECT_EQ(policy.stats().get("stripped_slots"), 4u);
    EXPECT_EQ(policy.stats().get("control_only_packets"), 1u);
    EXPECT_EQ(policy.stats().get("data_packets"), 0u);
}

/** An IR-predictor whose entry for (history, trace) is confident. */
struct ConfidentPredictor
{
    IRPredictor pred{[] {
        IRPredictorParams p;
        p.confidenceThreshold = 1;
        return p;
    }()};
    PathHistory history;
    TraceId trace{0x1000, 0b1, 1, 8};
    RemovalPlan plan;

    ConfidentPredictor()
    {
        plan.irVec = 0b0110;
        plan.reasons.assign(8, reason::kBR);
        for (int i = 0; i < 4; ++i)
            pred.update(history, trace, plan);
    }
};

TEST(AStreamPolicy, ReliabilityCoolsDownAfterRecovery)
{
    ConfidentPredictor c;
    ASSERT_TRUE(c.pred.lookup(c.history, c.trace).has_value());

    AStreamPolicyParams params;
    params.kind = AStreamPolicyKind::Reliability;
    AStreamPolicy policy(params);
    const auto plans = [&] {
        return policy.planTrace(c.pred, c.history, c.trace).has_value();
    };

    // Before any recovery the predictor's plan passes straight through.
    std::optional<RemovalPlan> got =
        policy.planTrace(c.pred, c.history, c.trace);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->irVec, c.plan.irVec);

    // A recovery suspends removal for exactly the cooldown length...
    policy.onRecovery();
    for (unsigned i = 0; i < AStreamPolicy::kCooldownTraces; ++i)
        EXPECT_FALSE(plans()) << "trace " << i << " of the cooldown";

    // ...then the predictor's plan is back.
    got = policy.planTrace(c.pred, c.history, c.trace);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->irVec, c.plan.irVec);
    EXPECT_EQ(policy.stats().get("cooldowns"), 1u);
    EXPECT_EQ(policy.stats().get("cooldown_traces"),
              uint64_t(AStreamPolicy::kCooldownTraces));

    // A recovery inside a cooldown restarts it; it is one cooldown.
    policy.onRecovery();
    EXPECT_FALSE(plans());
    policy.onRecovery();
    for (unsigned i = 0; i < AStreamPolicy::kCooldownTraces; ++i)
        EXPECT_FALSE(plans()) << i;
    EXPECT_TRUE(plans());
    EXPECT_EQ(policy.stats().get("cooldowns"), 2u);
}

TEST(AStreamPolicy, IRRemovalHasNoCooldown)
{
    ConfidentPredictor c;
    AStreamPolicy policy(AStreamPolicyParams{});

    policy.onRecovery();
    const std::optional<RemovalPlan> got =
        policy.planTrace(c.pred, c.history, c.trace);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->irVec, c.plan.irVec);
    EXPECT_EQ(policy.stats().get("cooldowns"), 0u);
    EXPECT_EQ(policy.stats().get("cooldown_traces"), 0u);
}

// ---------------------------------------------------------------------
// End-to-end: every policy yields architecturally correct output.
// ---------------------------------------------------------------------

const char *kProgram = R"(
.data
arr: .space 2048
.text
main:
    la   a0, arr
    li   s5, 0
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

TEST(AStreamPolicy, EveryPolicyProducesCorrectOutput)
{
    const std::string want = golden();
    for (unsigned i = 0; i < kNumAStreamPolicies; ++i) {
        const AStreamPolicyKind kind = AStreamPolicyKind(i);
        SCOPED_TRACE(aStreamPolicyName(kind));
        Program p = assemble(kProgram);
        SlipstreamParams params;
        params.aPolicy.kind = kind;
        SlipstreamProcessor proc(p, params);
        const SlipstreamRunResult r = proc.run();
        EXPECT_TRUE(r.halted);
        EXPECT_EQ(r.output, want);

        const uint64_t data =
            proc.aPolicy().stats().get("data_packets");
        const uint64_t stripped =
            proc.aPolicy().stats().get("stripped_slots");
        if (kind == AStreamPolicyKind::Reliability) {
            // The defining property: control only, always.
            EXPECT_EQ(data, 0u);
            EXPECT_GT(stripped, 0u);
        } else {
            EXPECT_GT(data, 0u);
            EXPECT_EQ(stripped, 0u);
        }
    }
}

/**
 * The reliability oracle (the satellite's acceptance property): force
 * IR-mispredictions by corrupting predictor SRAM mid-run; recoveries
 * fire, and still not one delay-buffer packet with data is published.
 * A corrupted A-stream context cannot poison the delay buffer when no
 * speculative value ever rides it.
 */
TEST(AStreamPolicy, ReliabilityNeverPublishesDataUnderIRMisprediction)
{
    const std::string want = golden();
    for (unsigned bit : {0u, 3u, 8u, 20u, 40u}) {
        SCOPED_TRACE(bit);
        Program p = assemble(kProgram);
        SlipstreamParams params;
        params.aPolicy.kind = AStreamPolicyKind::Reliability;
        SlipstreamProcessor proc(p, params);
        proc.faultInjector().arm({FaultTarget::IRPredictor, 4000, bit});
        const SlipstreamRunResult r = proc.run();
        EXPECT_TRUE(r.halted);
        EXPECT_EQ(r.output, want);
        EXPECT_EQ(proc.aPolicy().stats().get("data_packets"), 0u);
        EXPECT_GT(proc.aPolicy().stats().get("control_only_packets"),
                  0u);
    }
}

} // namespace
} // namespace slip
