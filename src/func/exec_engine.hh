/**
 * @file
 * Predecoded block execution engine for the functional core.
 *
 * execute() re-walks the Opcode switch (plus opInfo table lookups and
 * destination resolution) for every instruction. This engine instead
 * runs straight over a Program's predecoded MicroOp array, and keeps
 * a one-entry data-page pointer cache so the common-case load/store
 * is a bounds check plus memcpy instead of a hash lookup per byte.
 *
 * It dispatches with computed gotos (a `&&label` table, the GNU
 * labels-as-values extension), the one engine every build compiles.
 * Architectural results are bit-identical to execute(), the
 * reference semantics: the differential tests in
 * tests/test_exec_engine.cc assert it.
 *
 * The engine runs until HALT, the instruction budget, or control
 * leaving the text image (a wild JALR / fall-through); the caller
 * retires the wild pc's synthetic HALT one instruction at a time, so
 * the park-on-synthetic-HALT semantics stay in one place
 * (Program::microAt).
 */

#ifndef SLIPSTREAM_FUNC_EXEC_ENGINE_HH
#define SLIPSTREAM_FUNC_EXEC_ENGINE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hh"

namespace slip
{

class ArchState;
class Memory;
class Program;

/**
 * The functional core's dispatch engine. There is one; the enum and
 * the three constants below name it in bench banners
 * (perfbench/slipbench.cc).
 */
enum class DispatchKind : uint8_t
{
    Threaded, // computed-goto over predecoded micro-ops
};

/** Lower-case name for logs and bench labels. */
constexpr const char *
dispatchName(DispatchKind)
{
    return "threaded";
}

/** Every build compiles the computed-goto engine. */
constexpr bool
threadedDispatchCompiled()
{
    return true;
}

/** The engine this build compiled. Reads no environment. */
constexpr DispatchKind
defaultDispatch()
{
    return DispatchKind::Threaded;
}

/**
 * Observer for retired stores, the one per-instruction event the fuzz
 * oracle's reference leg needs. Invoked only from store handlers, so
 * the non-store hot path stays observer-free.
 */
using StoreObserver =
    std::function<void(Addr pc, Addr addr, unsigned bytes, Word value)>;

/** Why runPredecoded returned. */
struct EngineExit
{
    uint64_t retired = 0; // instructions retired by this call
    bool halted = false;  // HALT executed; state.pc() parks on it
    bool leftText = false; // control left text; state.pc() is wild
};

/**
 * Run `program` from state.pc() until HALT, `maxInsts` retires, or
 * control leaves the text image. Updates registers, pc and `mem` in
 * place; PUTC/PUTN append to `*output` when non-null.
 */
EngineExit runPredecoded(ArchState &state, Memory &mem,
                         const Program &program, std::string *output,
                         uint64_t maxInsts,
                         const StoreObserver *storeObserver = nullptr);

} // namespace slip

#endif // SLIPSTREAM_FUNC_EXEC_ENGINE_HH
