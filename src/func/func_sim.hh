/**
 * @file
 * The functional simulator: architecturally-correct, run-to-completion
 * execution of an SSIR program. It is the oracle the paper's §4
 * describes — an independent functional model used to validate the
 * timing simulator's retired control and data flow.
 */

#ifndef SLIPSTREAM_FUNC_FUNC_SIM_HH
#define SLIPSTREAM_FUNC_FUNC_SIM_HH

#include <functional>
#include <string>

#include "assembler/program.hh"
#include "func/arch_state.hh"
#include "func/exec_engine.hh"
#include "func/executor.hh"
#include "mem/memory.hh"

namespace slip
{

/** Outcome of a functional run. */
struct FuncRunResult
{
    std::string output;       // everything PUTC/PUTN emitted
    uint64_t instCount = 0;   // retired dynamic instructions
    bool halted = false;      // false => hit the instruction limit
    Addr finalPc = 0;
};

/** Architecturally-correct interpreter for SSIR programs. */
class FuncSim
{
  public:
    /** The instruction budget a run uses when given 0. */
    static constexpr uint64_t kDefaultMaxInsts = 1'000'000'000ull;

    /** Load a program: data image into memory, sp at the stack top. */
    explicit FuncSim(const Program &program);

    /**
     * Run until HALT or until `maxInsts` instructions retire.
     * @param maxInsts safety limit; 0 means kDefaultMaxInsts
     */
    FuncRunResult run(uint64_t maxInsts = 0);

    /**
     * Execute exactly one instruction. Returns its ExecResult;
     * res.halted stays true once HALT has executed.
     */
    ExecResult step();

    /**
     * Run with a per-instruction observer (used by differential tests
     * to compare retirement streams instruction by instruction).
     * A null observer is the plain run() fast path; a non-null one
     * forces per-instruction stepping, since the block engine cannot
     * surface every ExecResult.
     */
    FuncRunResult
    runWithObserver(std::function<void(Addr pc, const StaticInst &,
                                       const ExecResult &)> observer,
                    uint64_t maxInsts = 0);

    /**
     * Run observing only retired stores. Unlike runWithObserver this
     * keeps the block engine's full speed — store handlers are the
     * only ones that see the hook — which is what the fuzz oracle's
     * reference leg wants.
     */
    FuncRunResult runWithStoreObserver(const StoreObserver &observer,
                                       uint64_t maxInsts = 0);

    const ArchState &state() const { return state_; }
    ArchState &state() { return state_; }
    Memory &memory() { return mem; }
    const std::string &output() const { return output_; }
    bool halted() const { return halted_; }

  private:
    /** Block-engine driver shared by run()/runWithStoreObserver(). */
    FuncRunResult runEngine(uint64_t maxInsts,
                            const StoreObserver *storeObserver);

    FuncRunResult finishResult() const;

    const Program &program;
    Memory mem;
    DirectMemPort port;
    ArchState state_;
    std::string output_;
    bool halted_ = false;
    uint64_t retired = 0;
};

} // namespace slip

#endif // SLIPSTREAM_FUNC_FUNC_SIM_HH
