#include "func/func_sim.hh"

#include "common/logging.hh"
#include "isa/regnames.hh"

namespace slip
{

namespace
{
constexpr uint64_t kDefaultMaxInsts = 1'000'000'000ull;
} // namespace

FuncSim::FuncSim(const Program &program)
    : program(program), port(mem), state_(port)
{
    program.loadInto(mem);
    state_.setPc(program.entry());
    state_.writeReg(reg::sp, layout::kStackTop);
}

ExecResult
FuncSim::execOne()
{
    ExecResult res;
    if (dispatch_ == DispatchKind::Legacy)
        res = execute(state_, program.fetch(state_.pc()), &output_);
    else
        executeMicro(state_, program.microAt(state_.pc()), &output_, res);
    ++retired;
    if (res.halted)
        halted_ = true;
    return res;
}

ExecResult
FuncSim::step()
{
    return execOne();
}

FuncRunResult
FuncSim::finishResult() const
{
    FuncRunResult result;
    result.output = output_;
    result.instCount = retired;
    result.halted = halted_;
    result.finalPc = state_.pc();
    return result;
}

FuncRunResult
FuncSim::runEngine(uint64_t maxInsts,
                   const StoreObserver *storeObserver)
{
    while (!halted_ && retired < maxInsts) {
        const EngineExit e =
            runPredecoded(state_, mem, program, &output_,
                          maxInsts - retired, dispatch_, storeObserver);
        retired += e.retired;
        if (e.halted) {
            halted_ = true;
            break;
        }
        if (!e.leftText || retired >= maxInsts)
            break;
        // Control left the text image: retire the synthetic HALT the
        // legacy fetch path produces for a wild pc (parking there),
        // through the same per-instruction path legacy mode uses.
        execOne();
    }
    return finishResult();
}

FuncRunResult
FuncSim::run(uint64_t maxInsts)
{
    if (maxInsts == 0)
        maxInsts = kDefaultMaxInsts;

    if (dispatch_ != DispatchKind::Legacy)
        return runEngine(maxInsts, nullptr);

    // Legacy dispatch: the pre-engine per-instruction loop.
    while (!halted_ && retired < maxInsts)
        execOne();
    return finishResult();
}

FuncRunResult
FuncSim::runWithObserver(
    std::function<void(Addr, const StaticInst &, const ExecResult &)>
        observer,
    uint64_t maxInsts)
{
    if (!observer)
        return run(maxInsts);

    if (maxInsts == 0)
        maxInsts = kDefaultMaxInsts;

    while (!halted_ && retired < maxInsts) {
        const Addr pc = state_.pc();
        const StaticInst &inst = program.fetch(pc);
        const ExecResult res = execOne();
        observer(pc, inst, res);
    }
    return finishResult();
}

FuncRunResult
FuncSim::runWithStoreObserver(const StoreObserver &observer,
                              uint64_t maxInsts)
{
    if (maxInsts == 0)
        maxInsts = kDefaultMaxInsts;

    if (dispatch_ != DispatchKind::Legacy)
        return runEngine(maxInsts, &observer);

    while (!halted_ && retired < maxInsts) {
        const Addr pc = state_.pc();
        const StaticInst &inst = program.fetch(pc);
        const ExecResult res = execOne();
        if (inst.isStore())
            observer(pc, res.memAddr, res.memBytes, res.storeValue);
    }
    return finishResult();
}

} // namespace slip
