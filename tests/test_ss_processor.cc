#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "func/func_sim.hh"
#include "uarch/ss_processor.hh"

namespace slip
{
namespace
{

const char *kLoopProgram = R"(
.data
arr: .space 256
.text
main:
    la   a0, arr
    li   t0, 0
fill:
    slli t1, t0, 3
    add  t1, t1, a0
    mul  t2, t0, t0
    sd   t2, 0(t1)
    addi t0, t0, 1
    li   t3, 32
    blt  t0, t3, fill
    li   t0, 0
    li   t4, 0
sum:
    slli t1, t0, 3
    add  t1, t1, a0
    ld   t2, 0(t1)
    add  t4, t4, t2
    addi t0, t0, 1
    li   t3, 32
    blt  t0, t3, sum
    putn t4
    halt
)";

TEST(SSProcessor, MatchesFunctionalSimulator)
{
    Program p = assemble(kLoopProgram);
    FuncSim func(p);
    const FuncRunResult golden = func.run();

    SSProcessor proc(p);
    const SSRunResult r = proc.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.output, golden.output);
    EXPECT_EQ(r.retired, golden.instCount);
}

TEST(SSProcessor, TraceLengthOutsideOneTo64IsRefused)
{
    Program p = assemble(kLoopProgram);
    for (unsigned len : {0u, 65u}) {
        EXPECT_THROW(SSProcessor(p, {}, {}, TracePolicy{len, true}),
                     FatalError)
            << "length " << len;
    }

    // 64, the ablation's longest, runs; without backward-taken ends
    // its traces reach the full length.
    const FuncRunResult golden = FuncSim(p).run();
    for (bool loopEnds : {true, false}) {
        SSProcessor proc(p, {}, {}, TracePolicy{64, loopEnds});
        const SSRunResult r = proc.run();
        EXPECT_TRUE(r.halted);
        EXPECT_EQ(r.output, golden.output);
        EXPECT_EQ(r.retired, golden.instCount);
    }
}

TEST(SSProcessor, IpcIsPlausible)
{
    Program p = assemble(kLoopProgram);
    SSProcessor proc(p);
    const SSRunResult r = proc.run();
    EXPECT_GT(r.ipc(), 0.3);
    EXPECT_LE(r.ipc(), 4.0); // retire width bounds IPC
}

TEST(SSProcessor, WiderMachineIsFasterOnIlp)
{
    // Loop with abundant ILP: SS(128x8) must beat SS(64x4).
    const char *src = R"(
main:
    li   s0, 200
loop:
    addi t0, t0, 1
    addi t1, t1, 2
    addi t2, t2, 3
    addi t3, t3, 4
    addi t4, t4, 5
    addi t5, t5, 6
    addi t6, t6, 7
    addi t7, t7, 8
    addi s0, s0, -1
    bnez s0, loop
    halt
)";
    Program p = assemble(src);
    SSProcessor narrow(p);
    const Cycle narrowCycles = narrow.run().cycles;
    SSProcessor wide(p, CoreParams::wide8());
    const Cycle wideCycles = wide.run().cycles;
    EXPECT_LT(wideCycles, narrowCycles);
}

TEST(SSProcessor, TracePredictorReducesMispredicts)
{
    // A stable loop: after warmup, branch mispredictions should be
    // rare relative to total branches.
    Program p = assemble(R"(
main:
    li  s0, 2000
loop:
    addi s1, s1, 1
    addi s0, s0, -1
    bnez s0, loop
    putn s1
    halt
)");
    SSProcessor proc(p);
    const SSRunResult r = proc.run();
    EXPECT_EQ(r.output, "2000\n");
    EXPECT_LT(r.mispPer1000(), 10.0);
}

TEST(SSProcessor, MaxCyclesBoundsRun)
{
    Program p = assemble("main: j main\n");
    SSProcessor proc(p);
    const SSRunResult r = proc.run(500);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.cycles, 500u);
}

TEST(SSProcessor, RecursiveProgramMatchesFunctional)
{
    const char *src = R"(
main:
    li   a0, 8
    call fib
    putn a1
    halt
fib:
    push ra
    li   t0, 2
    blt  a0, t0, fib_base
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
fib_base:
    mv   a1, a0
    pop  ra
    ret
)";
    Program p = assemble(src);
    FuncSim func(p);
    const FuncRunResult golden = func.run();
    EXPECT_EQ(golden.output, "21\n");

    SSProcessor proc(p);
    const SSRunResult r = proc.run();
    EXPECT_EQ(r.output, golden.output);
    EXPECT_EQ(r.retired, golden.instCount);
}

} // namespace
} // namespace slip
