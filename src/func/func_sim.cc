#include "func/func_sim.hh"

#include "common/logging.hh"
#include "isa/regnames.hh"

namespace slip
{

FuncSim::FuncSim(const Program &program)
    : program(program), port(mem), state_(port)
{
    program.loadInto(mem);
    state_.setPc(program.entry());
    state_.writeReg(reg::sp, layout::kStackTop);
}

ExecResult
FuncSim::step()
{
    ExecResult res;
    executeMicro(state_, program.microAt(state_.pc()), &output_, res);
    ++retired;
    if (res.halted)
        halted_ = true;
    return res;
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
    if (maxInsts == 0)
        maxInsts = kDefaultMaxInsts;

    while (!halted_ && retired < maxInsts) {
        const EngineExit e =
            runPredecoded(state_, mem, program, &output_,
                          maxInsts - retired, storeObserver);
        retired += e.retired;
        if (e.halted) {
            halted_ = true;
            break;
        }
        if (!e.leftText || retired >= maxInsts)
            break;
        // Control left the text image: retire the synthetic HALT
        // Program::microAt returns for a wild pc (parking there).
        step();
    }
    return finishResult();
}

FuncRunResult
FuncSim::run(uint64_t maxInsts)
{
    return runEngine(maxInsts, nullptr);
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
        const ExecResult res = step();
        observer(pc, inst, res);
    }
    return finishResult();
}

FuncRunResult
FuncSim::runWithStoreObserver(const StoreObserver &observer,
                              uint64_t maxInsts)
{
    return runEngine(maxInsts, &observer);
}

} // namespace slip
