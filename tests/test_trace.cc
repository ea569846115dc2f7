#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "uarch/fetch_source.hh"
#include "uarch/trace.hh"

namespace slip
{
namespace
{

StaticInst
alu()
{
    return {Opcode::ADDI, 5, 5, 0, 1};
}

StaticInst
branch(int64_t off)
{
    return {Opcode::BNE, 0, 5, 0, off};
}

TEST(TraceId, HashDistinguishesComponents)
{
    TraceId a{0x1000, 0b101, 3, 10};
    TraceId b = a;
    EXPECT_EQ(a.hash(), b.hash());
    b.branchBits = 0b100;
    EXPECT_NE(a.hash(), b.hash());
    b = a;
    b.startPc = 0x1004;
    EXPECT_NE(a.hash(), b.hash());
    b = a;
    b.length = 11;
    EXPECT_NE(a.hash(), b.hash());
}

TEST(TraceIdAppend, RecordsBranchBitsInOrder)
{
    TraceId id;
    id.append(branch(10), true);  // T (forward)
    id.append(alu(), true);       // not a branch: no bit
    id.append(branch(5), false);  // N
    id.append(branch(8), true);   // T
    id.append({Opcode::JALR, 0, 1, 0, 0}, true);
    EXPECT_EQ(id.numBranches, 3);
    EXPECT_EQ(id.branchBits, 0b101u);
    EXPECT_EQ(id.length, 5);
}

TEST(TraceIdAppend, LongestTraceFillsEveryBranchBit)
{
    TraceId id;
    for (unsigned i = 0; i < kTraceLenLimit; ++i)
        id.append(branch(1), i % 2 == 0);
    EXPECT_EQ(id.numBranches, kTraceLenLimit);
    EXPECT_EQ(id.length, kTraceLenLimit);
    EXPECT_EQ(id.branchBits, 0x5555555555555555ull);
}

TEST(TracePolicy, EndsTraceAfterPredicate)
{
    const TracePolicy p{};
    EXPECT_TRUE(endsTraceAfter(p, {Opcode::HALT, 0, 0, 0, 0}, false,
                               0x1000, 0x1000));
    EXPECT_TRUE(endsTraceAfter(p, {Opcode::JALR, 0, 1, 0, 0}, true,
                               0x1000, 0x2000));
    EXPECT_TRUE(endsTraceAfter(p, branch(-2), true, 0x1008, 0x1000));
    EXPECT_FALSE(endsTraceAfter(p, branch(-2), false, 0x1008, 0x100c));
    EXPECT_FALSE(endsTraceAfter(p, alu(), false, 0x1000, 0x1004));
    // Backward JAL (loop via jump) also ends the trace.
    EXPECT_TRUE(endsTraceAfter(p, {Opcode::JAL, 0, 0, 0, -4}, true,
                               0x1010, 0x1000));
}

TEST(TracePolicy, ForwardTakenDoesNotEndTrace)
{
    EXPECT_FALSE(
        endsTraceAfter(TracePolicy{}, branch(4), true, 0x1000, 0x1010));
}

TEST(TracePolicy, BackwardTakenEndsOnlyWithThePolicyOn)
{
    EXPECT_TRUE(endsTraceAfter(TracePolicy{32, true}, branch(-1), true,
                               0x1004, 0x1000));
    EXPECT_FALSE(endsTraceAfter(TracePolicy{32, false}, branch(-1), true,
                                0x1004, 0x1000));
}

TEST(BuildStaticTrace, FollowsBtfnHeuristic)
{
    Program p = assemble(R"(
main:
    addi t0, t0, 1
    beq  t0, t1, fwd    # forward: predicted not-taken
    addi t0, t0, 2
fwd:
    blt  t0, t1, main   # backward: predicted taken -> ends trace
    halt
)");
    const TraceId id = buildStaticTrace(p, p.entry());
    EXPECT_EQ(id.startPc, p.entry());
    // addi, beq(NT), addi, blt(T) -> 4 instructions, bits 0b10.
    EXPECT_EQ(id.length, 4);
    EXPECT_EQ(id.numBranches, 2);
    EXPECT_EQ(id.branchBits, 0b10u);
}

TEST(BuildStaticTrace, CutsAtMaxLength)
{
    Program p = assemble("main: nop\nnop\nnop\nnop\nnop\nhalt\n");
    const TraceId id = buildStaticTrace(p, p.entry(), TracePolicy{4, false});
    EXPECT_EQ(id.startPc, p.entry());
    EXPECT_EQ(id.length, 4);
    EXPECT_EQ(id.numBranches, 0);
}

TEST(BuildStaticTrace, LoopsOnPastBackwardTakenWithThePolicyOff)
{
    Program p = assemble(R"(
main:
    addi t0, t0, 1
    blt  t0, t1, main
    halt
)");
    // addi, blt(T) ends the trace when the policy is on...
    const TraceId on = buildStaticTrace(p, p.entry(), TracePolicy{8, true});
    EXPECT_EQ(on.length, 2);
    EXPECT_EQ(on.branchBits, 0b1u);
    // ...and goes round the loop until the length cap when it is off.
    const TraceId off =
        buildStaticTrace(p, p.entry(), TracePolicy{5, false});
    EXPECT_EQ(off.length, 5);
    EXPECT_EQ(off.numBranches, 2);
    EXPECT_EQ(off.branchBits, 0b11u);
}

TEST(BuildStaticTrace, StopsAtHalt)
{
    Program p = assemble("main: nop\nhalt\n");
    const TraceId id = buildStaticTrace(p, p.entry());
    EXPECT_EQ(id.length, 2);
}

TEST(TraceToString, Readable)
{
    TraceId id{0x1000, 0b01, 2, 5};
    const std::string s = to_string(id);
    EXPECT_NE(s.find("pc=0x1000"), std::string::npos);
    EXPECT_NE(s.find("TN"), std::string::npos);
}

} // namespace
} // namespace slip
