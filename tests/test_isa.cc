#include <gtest/gtest.h>

#include "common/logging.hh"
#include "isa/isa.hh"
#include "isa/regnames.hh"

namespace slip
{
namespace
{

TEST(Isa, OpInfoTableIsComplete)
{
    for (unsigned i = 0; i < unsigned(Opcode::NumOpcodes); ++i) {
        const OpInfo &info = opInfo(static_cast<Opcode>(i));
        EXPECT_NE(info.mnemonic, nullptr);
        EXPECT_GT(std::string(info.mnemonic).size(), 0u);
    }
}

TEST(Isa, OpInfoRejectsOutOfRangeOpcode)
{
    EXPECT_THROW(opInfo(Opcode::NumOpcodes), PanicError);
    EXPECT_THROW(opInfo(static_cast<Opcode>(0xff)), PanicError);
}

TEST(Isa, ClassPredicates)
{
    StaticInst ld{Opcode::LD, 1, 2, 0, 8};
    EXPECT_TRUE(ld.isLoad());
    EXPECT_FALSE(ld.isStore());
    EXPECT_EQ(ld.memBytes(), 8u);

    StaticInst sw{Opcode::SW, 0, 2, 3, 4};
    EXPECT_TRUE(sw.isStore());
    EXPECT_EQ(sw.memBytes(), 4u);

    StaticInst beq{Opcode::BEQ, 0, 1, 2, -4};
    EXPECT_TRUE(beq.isCondBranch());
    EXPECT_TRUE(beq.isControl());
    EXPECT_FALSE(beq.isJump());

    StaticInst jal{Opcode::JAL, reg::ra, 0, 0, 10};
    EXPECT_TRUE(jal.isJump());
    EXPECT_FALSE(jal.isIndirectJump());
    EXPECT_TRUE(jal.isControl());

    StaticInst jalr{Opcode::JALR, 0, reg::ra, 0, 0};
    EXPECT_TRUE(jalr.isIndirectJump());

    StaticInst halt{Opcode::HALT, 0, 0, 0, 0};
    EXPECT_TRUE(halt.isHalt());
    EXPECT_TRUE(halt.isSyscall());

    StaticInst putc{Opcode::PUTC, 0, 5, 0, 0};
    EXPECT_TRUE(putc.isOutput());
}

TEST(Isa, DestRegOfAluOps)
{
    StaticInst add{Opcode::ADD, 7, 1, 2, 0};
    EXPECT_EQ(add.destReg(), 7);

    // Writes to r0 are architectural no-ops: no destination.
    StaticInst addZero{Opcode::ADD, 0, 1, 2, 0};
    EXPECT_EQ(addZero.destReg(), kNoReg);
}

TEST(Isa, DestRegOfNonWriters)
{
    StaticInst sw{Opcode::SW, 0, 2, 3, 0};
    EXPECT_EQ(sw.destReg(), kNoReg);
    StaticInst beq{Opcode::BEQ, 0, 1, 2, 4};
    EXPECT_EQ(beq.destReg(), kNoReg);
    StaticInst halt{Opcode::HALT, 0, 0, 0, 0};
    EXPECT_EQ(halt.destReg(), kNoReg);
    StaticInst putn{Opcode::PUTN, 0, 4, 0, 0};
    EXPECT_EQ(putn.destReg(), kNoReg);
}

TEST(Isa, JumpsWriteLinkRegister)
{
    StaticInst jal{Opcode::JAL, reg::ra, 0, 0, 5};
    EXPECT_EQ(jal.destReg(), reg::ra);
    StaticInst j{Opcode::JAL, reg::zero, 0, 0, 5};
    EXPECT_EQ(j.destReg(), kNoReg);
}

TEST(Isa, SrcRegsByFormat)
{
    RegIndex srcs[2];

    StaticInst add{Opcode::ADD, 3, 1, 2, 0};
    add.srcRegs(srcs);
    EXPECT_EQ(srcs[0], 1);
    EXPECT_EQ(srcs[1], 2);

    StaticInst addi{Opcode::ADDI, 3, 1, 0, 5};
    addi.srcRegs(srcs);
    EXPECT_EQ(srcs[0], 1);
    EXPECT_EQ(srcs[1], kNoReg);

    StaticInst sd{Opcode::SD, 0, 2, 9, 0}; // mem[r2+0] = r9
    sd.srcRegs(srcs);
    EXPECT_EQ(srcs[0], 2);
    EXPECT_EQ(srcs[1], 9);

    StaticInst lui{Opcode::LUI, 3, 0, 0, 100};
    lui.srcRegs(srcs);
    EXPECT_EQ(srcs[0], kNoReg);
    EXPECT_EQ(srcs[1], kNoReg);

    StaticInst putc{Opcode::PUTC, 0, 6, 0, 0};
    putc.srcRegs(srcs);
    EXPECT_EQ(srcs[0], 6);
}

TEST(Isa, OpClassLatencyBuckets)
{
    EXPECT_EQ(StaticInst{Opcode::MUL}.opClass(), OpClass::IntMult);
    EXPECT_EQ(StaticInst{Opcode::DIV}.opClass(), OpClass::IntDiv);
    EXPECT_EQ(StaticInst{Opcode::REMU}.opClass(), OpClass::IntDiv);
    EXPECT_EQ(StaticInst{Opcode::ADD}.opClass(), OpClass::IntAlu);
    EXPECT_EQ(StaticInst{Opcode::LW}.opClass(), OpClass::Load);
    EXPECT_EQ(StaticInst{Opcode::SB}.opClass(), OpClass::Store);
}

TEST(Isa, LoadSignednessAndWidths)
{
    EXPECT_TRUE(opInfo(Opcode::LB).loadSigned);
    EXPECT_FALSE(opInfo(Opcode::LBU).loadSigned);
    EXPECT_TRUE(opInfo(Opcode::LW).loadSigned);
    EXPECT_FALSE(opInfo(Opcode::LWU).loadSigned);
    EXPECT_EQ(opInfo(Opcode::LH).memBytes, 2);
    EXPECT_EQ(opInfo(Opcode::SD).memBytes, 8);
}

} // namespace
} // namespace slip
