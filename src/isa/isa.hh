/**
 * @file
 * The SSIR instruction set.
 *
 * SSIR is the MIPS-flavored RISC ISA this repository substitutes for the
 * proprietary SimpleScalar ISA used in the slipstream paper: 64
 * general-purpose 64-bit registers (r0 hardwired to zero), fixed 32-bit
 * instruction words, loads/stores, conditional branches, and direct and
 * indirect jumps. The slipstream machinery only cares about operation
 * *classes* (what writes what, what branches where), so any RISC ISA with
 * this shape exercises the same paths.
 *
 * Encoding (32 bits, opcode always in [31:24]):
 *   R-type:  op | rd[23:18]  | rs1[17:12] | rs2[11:6] | 0[5:0]
 *   I-type:  op | rd[23:18]  | rs1[17:12] | imm12[11:0] (signed)
 *   S-type:  op | rs2[23:18] | rs1[17:12] | imm12[11:0] (store)
 *   B-type:  op | rs1[23:18] | rs2[17:12] | imm12[11:0] (branch offset,
 *            in instruction words, relative to the branch PC)
 *   J-type:  op | rd[23:18]  | imm18[17:0] (JAL offset in instruction
 *            words; LUI places sext(imm18) << 12 in rd)
 */

#ifndef SLIPSTREAM_ISA_ISA_HH
#define SLIPSTREAM_ISA_ISA_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace slip
{

/** Every SSIR operation. Order is the binary opcode value. */
enum class Opcode : uint8_t
{
    // R-type ALU
    ADD, SUB, MUL, MULH, DIV, DIVU, REM, REMU,
    AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
    // I-type ALU
    ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI, SLTIU,
    LUI,
    // Loads (I-type)
    LB, LBU, LH, LHU, LW, LWU, LD,
    // Stores (S-type)
    SB, SH, SW, SD,
    // Branches (B-type)
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    // Jumps
    JAL,   // J-type: rd = pc + 4, pc += imm * 4
    JALR,  // I-type: rd = pc + 4, pc = rs1 + imm
    // System (I-type operand usage)
    PUTC,  // emit low byte of rs1 to the program output stream
    PUTN,  // emit signed decimal of rs1 plus newline
    HALT,  // terminate the program
    NOP,

    NumOpcodes
};

/** Instruction word layout family. */
enum class Format : uint8_t
{
    R, I, S, B, J, Sys
};

/** Functional-unit class; determines execution latency (Table 2). */
enum class OpClass : uint8_t
{
    IntAlu,   // 1 cycle
    IntMult,  // MIPS R10000-style multiply latency
    IntDiv,   // MIPS R10000-style divide latency
    Load,     // address generation + cache access
    Store,    // address generation
    Branch,   // 1 cycle (resolves the direction)
    Jump,     // 1 cycle
    Syscall   // output / halt
};

/** Static (decode-time) properties of an opcode. */
struct OpInfo
{
    const char *mnemonic;
    Format format;
    OpClass opClass;
    uint8_t memBytes;     // 1/2/4/8 for loads & stores, else 0
    bool loadSigned;      // sign-extend the loaded value
};

namespace detail
{

inline constexpr OpInfo kOpTable[] = {
    // mnemonic  format      opClass           memBytes  loadSigned
    {"add",   Format::R,   OpClass::IntAlu,   0, false},
    {"sub",   Format::R,   OpClass::IntAlu,   0, false},
    {"mul",   Format::R,   OpClass::IntMult,  0, false},
    {"mulh",  Format::R,   OpClass::IntMult,  0, false},
    {"div",   Format::R,   OpClass::IntDiv,   0, false},
    {"divu",  Format::R,   OpClass::IntDiv,   0, false},
    {"rem",   Format::R,   OpClass::IntDiv,   0, false},
    {"remu",  Format::R,   OpClass::IntDiv,   0, false},
    {"and",   Format::R,   OpClass::IntAlu,   0, false},
    {"or",    Format::R,   OpClass::IntAlu,   0, false},
    {"xor",   Format::R,   OpClass::IntAlu,   0, false},
    {"sll",   Format::R,   OpClass::IntAlu,   0, false},
    {"srl",   Format::R,   OpClass::IntAlu,   0, false},
    {"sra",   Format::R,   OpClass::IntAlu,   0, false},
    {"slt",   Format::R,   OpClass::IntAlu,   0, false},
    {"sltu",  Format::R,   OpClass::IntAlu,   0, false},
    {"addi",  Format::I,   OpClass::IntAlu,   0, false},
    {"andi",  Format::I,   OpClass::IntAlu,   0, false},
    {"ori",   Format::I,   OpClass::IntAlu,   0, false},
    {"xori",  Format::I,   OpClass::IntAlu,   0, false},
    {"slli",  Format::I,   OpClass::IntAlu,   0, false},
    {"srli",  Format::I,   OpClass::IntAlu,   0, false},
    {"srai",  Format::I,   OpClass::IntAlu,   0, false},
    {"slti",  Format::I,   OpClass::IntAlu,   0, false},
    {"sltiu", Format::I,   OpClass::IntAlu,   0, false},
    {"lui",   Format::J,   OpClass::IntAlu,   0, false},
    {"lb",    Format::I,   OpClass::Load,     1, true},
    {"lbu",   Format::I,   OpClass::Load,     1, false},
    {"lh",    Format::I,   OpClass::Load,     2, true},
    {"lhu",   Format::I,   OpClass::Load,     2, false},
    {"lw",    Format::I,   OpClass::Load,     4, true},
    {"lwu",   Format::I,   OpClass::Load,     4, false},
    {"ld",    Format::I,   OpClass::Load,     8, false},
    {"sb",    Format::S,   OpClass::Store,    1, false},
    {"sh",    Format::S,   OpClass::Store,    2, false},
    {"sw",    Format::S,   OpClass::Store,    4, false},
    {"sd",    Format::S,   OpClass::Store,    8, false},
    {"beq",   Format::B,   OpClass::Branch,   0, false},
    {"bne",   Format::B,   OpClass::Branch,   0, false},
    {"blt",   Format::B,   OpClass::Branch,   0, false},
    {"bge",   Format::B,   OpClass::Branch,   0, false},
    {"bltu",  Format::B,   OpClass::Branch,   0, false},
    {"bgeu",  Format::B,   OpClass::Branch,   0, false},
    {"jal",   Format::J,   OpClass::Jump,     0, false},
    {"jalr",  Format::I,   OpClass::Jump,     0, false},
    {"putc",  Format::Sys, OpClass::Syscall,  0, false},
    {"putn",  Format::Sys, OpClass::Syscall,  0, false},
    {"halt",  Format::Sys, OpClass::Syscall,  0, false},
    {"nop",   Format::Sys, OpClass::IntAlu,   0, false},
};

static_assert(sizeof(kOpTable) / sizeof(kOpTable[0]) ==
                  static_cast<size_t>(Opcode::NumOpcodes),
              "kOpTable out of sync with Opcode enum");

[[noreturn]] void badOpcode(size_t idx);

} // namespace detail

/** Static properties table lookup (inline: every decode query hits it). */
inline const OpInfo &
opInfo(Opcode op)
{
    const auto idx = static_cast<size_t>(op);
    if (idx >= static_cast<size_t>(Opcode::NumOpcodes)) [[unlikely]]
        detail::badOpcode(idx);
    return detail::kOpTable[idx];
}

/** Mnemonic for an opcode (lower case). */
inline const char *opcodeName(Opcode op) { return opInfo(op).mnemonic; }

/**
 * A decoded SSIR instruction. This is the common currency between the
 * assembler, the functional executor, the timing cores, and the
 * slipstream components.
 */
struct StaticInst
{
    Opcode op = Opcode::NOP;
    RegIndex rd = 0;
    RegIndex rs1 = 0;
    RegIndex rs2 = 0;
    int64_t imm = 0;

    Format format() const { return opInfo(op).format; }
    OpClass opClass() const { return opInfo(op).opClass; }

    bool isLoad() const { return opClass() == OpClass::Load; }
    bool isStore() const { return opClass() == OpClass::Store; }
    bool isCondBranch() const { return opClass() == OpClass::Branch; }
    bool isJump() const { return opClass() == OpClass::Jump; }
    bool isIndirectJump() const { return op == Opcode::JALR; }
    bool isHalt() const { return op == Opcode::HALT; }
    bool isOutput() const
    {
        return op == Opcode::PUTC || op == Opcode::PUTN;
    }
    bool isSyscall() const { return opClass() == OpClass::Syscall; }

    /** Any instruction that can redirect the PC. */
    bool
    isControl() const
    {
        return isCondBranch() || isJump();
    }

    /** Number of bytes touched by a load or store. */
    unsigned memBytes() const { return opInfo(op).memBytes; }

    /** Destination register, or kNoReg if none (or the zero reg). */
    RegIndex
    destReg() const
    {
        switch (format()) {
          case Format::R:
          case Format::I:
          case Format::J:
            if (op == Opcode::PUTC || op == Opcode::PUTN ||
                op == Opcode::HALT || op == Opcode::NOP) {
                return kNoReg;
            }
            return rd == kZeroReg ? kNoReg : rd;
          default:
            return kNoReg;
        }
    }

    /**
     * Source registers. Fills srcs[0..1]; absent sources are kNoReg.
     * The zero register is reported (reads of r0 are real reads that
     * always yield 0) so dependence tracking can ignore it explicitly.
     */
    void
    srcRegs(RegIndex srcs[2]) const
    {
        srcs[0] = kNoReg;
        srcs[1] = kNoReg;
        switch (format()) {
          case Format::R:
            srcs[0] = rs1;
            srcs[1] = rs2;
            break;
          case Format::I:
            if (op == Opcode::LUI)
                break;
            srcs[0] = rs1;
            break;
          case Format::S:
          case Format::B:
            srcs[0] = rs1;
            srcs[1] = rs2;
            break;
          case Format::J:
            break;
          case Format::Sys:
            if (op == Opcode::PUTC || op == Opcode::PUTN)
                srcs[0] = rs1;
            break;
        }
    }

    bool operator==(const StaticInst &other) const = default;
};

} // namespace slip

#endif // SLIPSTREAM_ISA_ISA_HH
