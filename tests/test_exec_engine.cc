/**
 * Differential tests for the functional core: executeMicro() and the
 * computed-goto block engine must retire bit-identical architectural
 * results — ExecResult streams, registers, memory, program output,
 * instruction counts — to execute(), the reference executor, across
 * every opcode, randomized operands, assembled edge-case programs,
 * and fuzz-generated workloads.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "assembler/assembler.hh"
#include "func/exec_engine.hh"
#include "func/func_sim.hh"
#include "fuzz/generator.hh"
#include "isa/micro_op.hh"
#include "isa/regnames.hh"

namespace slip
{
namespace
{

void
expectSameResult(const ExecResult &a, const ExecResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.nextPc, b.nextPc) << what;
    EXPECT_EQ(a.wroteReg, b.wroteReg) << what;
    EXPECT_EQ(a.destReg, b.destReg) << what;
    EXPECT_EQ(a.destValue, b.destValue) << what;
    EXPECT_EQ(a.isMem, b.isMem) << what;
    EXPECT_EQ(a.memAddr, b.memAddr) << what;
    EXPECT_EQ(a.memBytes, b.memBytes) << what;
    EXPECT_EQ(a.storeValue, b.storeValue) << what;
    EXPECT_EQ(a.loadedValue, b.loadedValue) << what;
    EXPECT_EQ(a.isControl, b.isControl) << what;
    EXPECT_EQ(a.taken, b.taken) << what;
    EXPECT_EQ(a.target, b.target) << what;
    EXPECT_EQ(a.halted, b.halted) << what;
}

// ---- per-opcode ExecResult parity: execute() vs executeMicro() ----

class MicroParity : public ::testing::Test
{
  protected:
    MicroParity()
        : portA(memA), portB(memB), stateA(portA), stateB(portB)
    {}

    /**
     * Run `inst` at `pc` through both executors against identically
     * prepared contexts and assert everything observable matches.
     */
    void
    check(const StaticInst &inst, Addr pc)
    {
        stateA.setPc(pc);
        stateB.setPc(pc);
        stateB.copyRegsFrom(stateA);

        const ExecResult ra = execute(stateA, inst, &outA);
        const MicroOp u = predecode(inst, pc);
        ExecResult rb;
        executeMicro(stateB, u, &outB, rb);

        const std::string what =
            "op " + std::to_string(static_cast<int>(inst.op)) +
            " rd " + std::to_string(inst.rd) + " imm " +
            std::to_string(inst.imm);
        expectSameResult(ra, rb, what);
        EXPECT_TRUE(stateA.regsEqual(stateB)) << what;
        EXPECT_EQ(stateA.pc(), stateB.pc()) << what;
        EXPECT_TRUE(memA.equals(memB)) << what;
        EXPECT_EQ(outA, outB) << what;
    }

    Memory memA, memB;
    DirectMemPort portA, portB;
    ArchState stateA, stateB;
    std::string outA, outB;
};

TEST_F(MicroParity, EveryOpcodeRandomizedOperands)
{
    std::mt19937_64 rng(0xfeedface);

    // Seed both memories with the same random image so loads observe
    // non-trivial bytes, including across a page boundary.
    const Addr base = layout::kDataBase;
    for (unsigned i = 0; i < 64; ++i) {
        const Word v = rng();
        memA.write(base + 8 * i, 8, v);
        memB.write(base + 8 * i, 8, v);
    }
    const Addr pageEdge = base + Memory::kPageBytes - 4;
    for (unsigned i = 0; i < 16; ++i) {
        const Word v = rng() & 0xff;
        memA.write(pageEdge + i, 1, v);
        memB.write(pageEdge + i, 1, v);
    }

    for (int o = 0; o < static_cast<int>(Opcode::NumOpcodes); ++o) {
        const Opcode op = static_cast<Opcode>(o);
        for (int trial = 0; trial < 24; ++trial) {
            StaticInst inst;
            inst.op = op;
            inst.rd = static_cast<RegIndex>(rng() % kNumRegs);
            inst.rs1 = static_cast<RegIndex>(rng() % kNumRegs);
            inst.rs2 = static_cast<RegIndex>(rng() % kNumRegs);

            // Random register state each trial (r0 stays zero).
            for (unsigned r = 1; r < kNumRegs; ++r)
                stateA.writeReg(static_cast<RegIndex>(r), rng());

            if (inst.memBytes() != 0) {
                // Point loads/stores at the seeded image; odd trials
                // straddle the page boundary.
                const Addr target = (trial & 1)
                                        ? pageEdge + trial % 4
                                        : base + rng() % 256;
                inst.imm = static_cast<int64_t>(rng() % 32);
                stateA.writeReg(inst.rs1, target - inst.imm);
            } else if (inst.isCondBranch() || op == Opcode::JAL) {
                inst.imm =
                    static_cast<int64_t>(rng() % 33) - 16; // words
            } else if (op == Opcode::JALR) {
                // Half the trials take a wild target; half land on a
                // plausible text address. rd may alias rs1.
                inst.imm = static_cast<int64_t>(rng() % 64) - 32;
                if (trial % 2)
                    inst.rs1 = inst.rd;
                stateA.writeReg(
                    inst.rs1,
                    (trial & 2) ? rng() : 0x1000 + (rng() % 64) * 4);
            } else {
                inst.imm = static_cast<int64_t>(
                               static_cast<int32_t>(rng())) >>
                           (rng() % 32);
            }

            check(inst, 0x1000 + (rng() % 1024) * kInstBytes);
        }
    }
}

TEST_F(MicroParity, DivRemEdgeCases)
{
    const Word kMinS64 = 0x8000000000000000ull;
    const struct
    {
        Opcode op;
        Word a, b;
    } cases[] = {
        {Opcode::DIV, 7, 0},         {Opcode::DIV, kMinS64, Word(-1)},
        {Opcode::DIVU, 5, 0},        {Opcode::REM, 7, 0},
        {Opcode::REM, kMinS64, Word(-1)}, {Opcode::REMU, 7, 0},
        {Opcode::MULH, kMinS64, kMinS64},
    };
    for (const auto &c : cases) {
        stateA.writeReg(1, c.a);
        stateA.writeReg(2, c.b);
        check({c.op, 3, 1, 2, 0}, 0x1000);
    }
}

// ---- whole-program parity: the engine vs stepping execute() ----

/** Everything observable about one whole-program run. */
struct RunCapture
{
    FuncRunResult result;
    std::vector<Word> regs;
    Memory mem;

    void
    captureState(FuncSim &sim)
    {
        result.finalPc = sim.state().pc();
        for (unsigned r = 0; r < kNumRegs; ++r)
            regs.push_back(
                sim.state().readReg(static_cast<RegIndex>(r)));
        mem = sim.memory().clone();
    }
};

/** The reference: execute() stepped from FuncSim's initial state. */
RunCapture
referenceRun(const Program &p, uint64_t maxInsts)
{
    FuncSim sim(p);
    ArchState &state = sim.state();
    RunCapture ref;
    FuncRunResult &r = ref.result;
    while (!r.halted && r.instCount < maxInsts) {
        r.halted = execute(state, p.fetch(state.pc()), &r.output).halted;
        ++r.instCount;
    }
    ref.captureState(sim);
    return ref;
}

void
expectSameRun(const Program &p, uint64_t maxInsts = 0)
{
    FuncSim sim(p);
    RunCapture got;
    got.result = sim.run(maxInsts);
    got.captureState(sim);

    const RunCapture ref =
        referenceRun(p, maxInsts ? maxInsts : FuncSim::kDefaultMaxInsts);
    EXPECT_EQ(got.result.output, ref.result.output);
    EXPECT_EQ(got.result.instCount, ref.result.instCount);
    EXPECT_EQ(got.result.halted, ref.result.halted);
    EXPECT_EQ(got.result.finalPc, ref.result.finalPc);
    EXPECT_EQ(got.regs, ref.regs);
    EXPECT_TRUE(got.mem.equals(ref.mem));
}

TEST(EngineParity, LoopsCallsAndOutput)
{
    expectSameRun(assemble(R"(
main:
    li   a0, 10
    call sum
    putn a1
    halt
sum:
    push ra
    beqz a0, base
    push a0
    addi a0, a0, -1
    call sum
    pop  a0
    add  a1, a1, a0
    pop  ra
    ret
base:
    li   a1, 0
    pop  ra
    ret
)"));
}

TEST(EngineParity, MemoryWidthsAndPageCross)
{
    // Every store/load width, plus an unaligned 8-byte access that
    // straddles the first data page boundary (the engine's slow path).
    expectSameRun(assemble(R"(
.data
buf: .dword 0, 0, 0, 0
.text
main:
    la   t0, buf
    li   t1, -2
    sb   t1, 0(t0)
    sh   t1, 2(t0)
    sw   t1, 4(t0)
    sd   t1, 8(t0)
    lb   t2, 0(t0)
    lbu  t3, 0(t0)
    lh   t4, 2(t0)
    lhu  t5, 2(t0)
    lw   t6, 4(t0)
    lwu  t7, 4(t0)
    ld   t8, 8(t0)
    putn t2
    putn t3
    putn t4
    putn t5
    putn t6
    putn t7
    putn t8
    li   t0, 0x100ffc
    sd   t1, 0(t0)
    ld   s0, 0(t0)
    putn s0
    halt
)"));
}

TEST(EngineParity, FallsOffTextEnd)
{
    // No HALT: control falls off the end of the image and the wild-pc
    // path must retire the same synthetic HALT as execute().
    expectSameRun(assemble("main: addi a0, a0, 1\naddi a0, a0, 2\n"));
}

TEST(EngineParity, WildJalrParks)
{
    const Program p = assemble(R"(
main:
    li  t0, 16
    jr  t0
    halt
)");
    // maxInsts == 2 cuts the run exactly at the wild jump; 3 retires
    // the synthetic HALT too. Both boundaries must agree with
    // execute().
    expectSameRun(p, 2);
    expectSameRun(p, 3);
    expectSameRun(p);
}

TEST(EngineParity, MisalignedJalrLeavesText)
{
    expectSameRun(assemble(R"(
main:
    li  t0, 0x1002
    jr  t0
    halt
)"));
}

TEST(EngineParity, InstructionBudgetBoundaries)
{
    const Program p = assemble("main: j main\n");
    for (uint64_t budget : {1ull, 2ull, 3ull, 100ull})
        expectSameRun(p, budget);
}

TEST(EngineParity, FuzzGeneratedPrograms)
{
    for (uint64_t seed = 0; seed < 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const fuzz::GeneratedProgram gp = fuzz::generate(seed);
        expectSameRun(assemble(gp.render()), 200'000);
    }
}

// ---- store observer parity ----

struct StoreRec
{
    Addr pc, addr;
    unsigned bytes;
    Word value;
    bool
    operator==(const StoreRec &o) const
    {
        return pc == o.pc && addr == o.addr && bytes == o.bytes &&
               value == o.value;
    }
};

TEST(EngineParity, StoreObserverSeesIdenticalStream)
{
    const Program p = assemble(R"(
.data
buf: .dword 0, 0
.text
main:
    la   t0, buf
    li   t1, 7
loop:
    sb   t1, 0(t0)
    sh   t1, 2(t0)
    sw   t1, 4(t0)
    sd   t1, 8(t0)
    addi t1, t1, -1
    bnez t1, loop
    halt
)");

    // Reference stream: execute() stepped one instruction at a time,
    // filtered to stores.
    std::vector<StoreRec> ref;
    {
        FuncSim sim(p);
        ArchState &state = sim.state();
        for (bool halted = false; !halted;) {
            const Addr pc = state.pc();
            const StaticInst &si = p.fetch(pc);
            const ExecResult res = execute(state, si, nullptr);
            if (si.isStore())
                ref.push_back(
                    {pc, res.memAddr, res.memBytes, res.storeValue});
            halted = res.halted;
        }
    }
    ASSERT_FALSE(ref.empty());

    std::vector<StoreRec> got;
    FuncSim sim(p);
    const FuncRunResult r = sim.runWithStoreObserver(
        [&](Addr pc, Addr addr, unsigned bytes, Word value) {
            got.push_back({pc, addr, bytes, value});
        });
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(got, ref);
}

} // namespace
} // namespace slip
