/**
 * @file
 * Predecoded micro-ops: the execution-ready form of a StaticInst.
 *
 * A StaticInst still pays per-execution decode work — opInfo() table
 * walks for memBytes/signedness, destReg() format dispatch, branch
 * target scaling — on every dynamic instance. A MicroOp resolves all
 * of that once, at program load:
 *
 *  - `handler` is the dispatch index (the raw opcode value), ready for
 *    the engine's computed-goto table,
 *  - `rd` is the already-resolved destination (kNoReg when the
 *    instruction has none, including writes to the zero register),
 *  - `rdSlot` maps kNoReg onto a 65th sink slot so the threaded engine
 *    can write destinations unconditionally,
 *  - `imm` is pre-transformed (LUI pre-shifted, shift amounts
 *    pre-masked) so handlers do no immediate massaging,
 *  - `target` is the pre-scaled absolute branch/JAL destination.
 *
 * Predecoding is pure per-instruction work keyed by (inst, pc), so the
 * array is built eagerly in the Program constructor and shared
 * read-only across threads like the rest of the image.
 */

#ifndef SLIPSTREAM_ISA_MICRO_OP_HH
#define SLIPSTREAM_ISA_MICRO_OP_HH

#include "common/types.hh"
#include "isa/isa.hh"

namespace slip
{

/** One execution-ready micro-op (24 bytes, trivially copyable). */
struct MicroOp
{
    uint8_t handler = static_cast<uint8_t>(Opcode::NOP);
    RegIndex rd = kNoReg;  // resolved destination; kNoReg = none
    uint8_t rdSlot = kNumRegs; // rd for a 65-slot file; kNumRegs = sink
    RegIndex rs1 = 0;
    RegIndex rs2 = 0;
    uint8_t memBytes = 0;  // 1/2/4/8 for loads & stores
    int64_t imm = 0;       // pre-transformed immediate
    Addr target = 0;       // absolute pre-scaled branch/JAL target

    Opcode op() const { return static_cast<Opcode>(handler); }
};

/**
 * Predecode one instruction sitting at `pc`. The result is only valid
 * for execution at that address (the branch target is absolute).
 */
MicroOp predecode(const StaticInst &inst, Addr pc);

} // namespace slip

#endif // SLIPSTREAM_ISA_MICRO_OP_HH
