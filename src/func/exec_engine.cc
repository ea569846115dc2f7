#include "func/exec_engine.hh"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "assembler/program.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "func/arch_state.hh"
#include "func/exec_semantics.hh"
#include "isa/isa.hh"
#include "isa/micro_op.hh"
#include "mem/memory.hh"

// The computed-goto engine needs the GNU labels-as-values extension;
// gate it on compiler support and the configure-time opt-out.
#if !defined(SLIPSTREAM_NO_THREADED_DISPATCH) && \
    (defined(__GNUC__) || defined(__clang__))
#define SLIP_HAVE_THREADED_DISPATCH 1
#else
#define SLIP_HAVE_THREADED_DISPATCH 0
#endif

namespace slip
{

namespace
{

#if SLIP_HAVE_THREADED_DISPATCH
// A computed-goto interpreter's speed depends on where its handlers
// land in the binary (shifting this function by 32 bytes changed the
// golden run by ~15%). Placing it in .text.hot keeps unrelated code
// growth elsewhere in the library from moving it.
[[gnu::hot]] EngineExit
runThreadedImpl(ArchState &state, Memory &mem, const Program &program,
                std::string *output, uint64_t maxInsts,
                const StoreObserver *storeObserver)
#define SLIP_ENGINE_THREADED 1
#include "func/exec_engine_body.inc"
#undef SLIP_ENGINE_THREADED
#endif // SLIP_HAVE_THREADED_DISPATCH

EngineExit
runSwitchImpl(ArchState &state, Memory &mem, const Program &program,
              std::string *output, uint64_t maxInsts,
              const StoreObserver *storeObserver)
#define SLIP_ENGINE_THREADED 0
#include "func/exec_engine_body.inc"
#undef SLIP_ENGINE_THREADED

} // namespace

const char *
dispatchName(DispatchKind kind)
{
    switch (kind) {
      case DispatchKind::Threaded: return "threaded";
      case DispatchKind::Switch: return "switch";
      case DispatchKind::Legacy: return "legacy";
    }
    return "?";
}

bool
threadedDispatchCompiled()
{
    return SLIP_HAVE_THREADED_DISPATCH != 0;
}

DispatchKind
defaultDispatch()
{
    const DispatchKind fallback = threadedDispatchCompiled()
                                      ? DispatchKind::Threaded
                                      : DispatchKind::Switch;
    // Strict mode-knob contract (common/env::envChoice): a typo here
    // would silently benchmark the wrong engine, so unknown values
    // throw. "threaded" on a build without the computed-goto engine
    // is a *valid* request that cannot be honored — that stays a
    // warning plus the switch engine, not an error.
    switch (envChoice("SLIPSTREAM_DISPATCH",
                      {"threaded", "switch", "legacy"},
                      size_t(fallback))) {
      case 0:
        if (!threadedDispatchCompiled()) {
            SLIP_WARN("SLIPSTREAM_DISPATCH=threaded but the "
                      "computed-goto engine is not compiled in; "
                      "using switch");
            return DispatchKind::Switch;
        }
        return DispatchKind::Threaded;
      case 1:
        return DispatchKind::Switch;
      case 2:
        return DispatchKind::Legacy;
      default:
        return fallback;
    }
}

EngineExit
runPredecoded(ArchState &state, Memory &mem, const Program &program,
              std::string *output, uint64_t maxInsts, DispatchKind kind,
              const StoreObserver *storeObserver)
{
#if SLIP_HAVE_THREADED_DISPATCH
    if (kind == DispatchKind::Threaded)
        return runThreadedImpl(state, mem, program, output, maxInsts,
                               storeObserver);
#endif
    return runSwitchImpl(state, mem, program, output, maxInsts,
                         storeObserver);
}

} // namespace slip
