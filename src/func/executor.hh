/**
 * @file
 * The SSIR instruction executors. execute() is the reference
 * semantics: a plain per-instruction decode switch that the
 * differential tests (tests/test_exec_engine.cc) hold executeMicro()
 * and the block engine (func/exec_engine.hh) to. The models run the
 * other two: the functional simulator, the superscalar timing cores,
 * both slipstream streams and the detection backends execute through
 * executeMicro() or the engine, so architectural behaviour cannot
 * diverge between models.
 */

#ifndef SLIPSTREAM_FUNC_EXECUTOR_HH
#define SLIPSTREAM_FUNC_EXECUTOR_HH

#include <string>

#include "func/arch_state.hh"
#include "isa/isa.hh"
#include "isa/micro_op.hh"

namespace slip
{

/**
 * Everything observable about one executed instruction. Wide fields
 * first, so the record fills exactly one 64-byte line: the walks keep
 * one per in-flight instruction.
 */
struct ExecResult
{
    Addr nextPc = 0;
    Word destValue = 0;
    Addr memAddr = 0;
    Word storeValue = 0;     // value written (stores)
    Word loadedValue = 0;    // value read (loads; == destValue)
    Addr target = 0;         // control-flow destination if taken

    unsigned memBytes = 0;
    RegIndex destReg = kNoReg;
    bool wroteReg = false;   // destination register was written
    bool isMem = false;      // load or store
    bool isControl = false;
    bool taken = false;      // conditional branch direction / jumps: true
    bool halted = false;
};

static_assert(sizeof(ExecResult) <= 64, "ExecResult outgrew a cache line");

/**
 * Execute one instruction against `state`, updating registers, PC and
 * memory: the reference semantics. PUTC/PUTN output is appended to
 * `*output` when non-null.
 *
 * @param state   the context to execute in (its pc() must point at inst)
 * @param inst    the decoded instruction
 * @param output  program output sink, may be nullptr
 * @return        full record of what the instruction did
 */
ExecResult execute(ArchState &state, const StaticInst &inst,
                   std::string *output);

/**
 * Execute one predecoded micro-op. Bit-identical to execute() on the
 * corresponding StaticInst — the differential tests assert it — but
 * skips the per-execution decode work (opInfo table walks, destination
 * resolution, branch-target scaling). `state.pc()` must equal the
 * address the micro-op was predecoded at (its branch target is
 * absolute).
 *
 * The record is written into `res` (every field reset first), so a
 * caller that keeps it builds it where it lives instead of copying a
 * returned one.
 */
void executeMicro(ArchState &state, const MicroOp &u, std::string *output,
                  ExecResult &res);

} // namespace slip

#endif // SLIPSTREAM_FUNC_EXECUTOR_HH
