#include "fuzz/oracle.hh"

#include <array>
#include <functional>
#include <sstream>

#include "common/invariant.hh"
#include "common/logging.hh"
#include "func/func_sim.hh"
#include "isa/regnames.hh"

namespace slip::fuzz
{

namespace
{

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

std::string
describe(const StoreEvent &e)
{
    return "pc=" + hex(e.pc) + " addr=" + hex(e.addr) + " bytes=" +
           std::to_string(e.bytes) + " value=" + hex(e.value);
}

/** First ~6 lines of a byte diff between two output strings. */
std::string
diffOutput(const std::string &golden, const std::string &got)
{
    size_t i = 0;
    while (i < golden.size() && i < got.size() && golden[i] == got[i])
        ++i;
    std::ostringstream os;
    os << "first difference at byte " << i << "\n"
       << "  golden: "
       << golden.substr(i > 8 ? i - 8 : 0, 48) << "\n"
       << "  leg:    " << got.substr(i > 8 ? i - 8 : 0, 48) << "\n"
       << "  sizes " << golden.size() << " vs " << got.size();
    return os.str();
}

struct Golden
{
    FuncRunResult run;
    std::vector<StoreEvent> stores;
    std::array<Word, kNumRegs> regs{};
};

/** Everything one timing leg produced. */
struct Leg
{
    std::string error; // exception text; empty = ran to the end
    bool completed = false;
    SlipstreamRunResult result;
    std::vector<StoreEvent> stores;
};

/** A retire observer appending each retired store to `leg`. */
std::function<void(const DynInst &, Cycle)>
storeObserver(Leg &leg)
{
    return [&leg](const DynInst &d, Cycle) {
        if (d.si->isStore()) {
            leg.stores.push_back({d.pc, d.exec->memAddr,
                                  d.exec->memBytes, d.exec->storeValue});
        }
    };
}

Leg
runLeg(SlipstreamProcessor &proc, const std::vector<FaultPlan> &faults,
       Cycle maxCycles)
{
    Leg leg;
    proc.onArchRetire = storeObserver(leg);
    if (!faults.empty())
        proc.faultInjector().arm(faults);
    try {
        leg.result = proc.run(maxCycles);
        leg.completed = leg.result.halted;
    } catch (const InvariantViolation &e) {
        leg.error = std::string("invariant violation: ") + e.what();
    } catch (const std::exception &e) {
        leg.error = e.what();
    }
    return leg;
}

/**
 * Leg 2 again, paused at cycle `at` and captured, then finished in a
 * freshly built processor restored from the capture (`restored`). A
 * run that ends or degrades before `at` finishes in `proc` itself.
 * The retired-store stream spans both processors.
 * @return the processor the run finished in
 */
SlipstreamProcessor &
runCheckpointLeg(Leg &leg, SlipstreamProcessor &proc,
                 SlipstreamProcessor &restored,
                 const std::vector<FaultPlan> &faults, Cycle at,
                 Cycle maxCycles)
{
    proc.onArchRetire = storeObserver(leg);
    restored.onArchRetire = storeObserver(leg);
    if (!faults.empty())
        proc.faultInjector().arm(faults);
    SlipstreamProcessor *finisher = &proc;
    try {
        if (proc.runUntil(at, maxCycles) && !proc.degraded()) {
            ckpt::Writer out(proc.now());
            proc.capture(out);
            const std::string bytes = out.take();
            ckpt::Reader in(bytes);
            restored.restore(in);
            finisher = &restored;
        }
        leg.result = finisher->run(maxCycles);
        leg.completed = leg.result.halted;
    } catch (const InvariantViolation &e) {
        leg.error = std::string("invariant violation: ") + e.what();
    } catch (const std::exception &e) {
        leg.error = e.what();
    }
    return *finisher;
}

/**
 * Diff one timing leg against the functional reference. `exact` is
 * false for the degraded leg: the forced transition discards
 * walked-but-unretired R work whose architectural effects already
 * landed, so its retirement count may legitimately fall short of the
 * dynamic instruction count and its retired-store stream may miss a
 * contiguous chunk around the transition. Output, final registers,
 * and final memory remain exact in every mode.
 */
std::string
compareLeg(const char *name, const Golden &golden, Leg &leg,
           SlipstreamProcessor &proc, FuncSim &func, bool exact)
{
    std::ostringstream os;
    os << "[" << name << "] ";

    if (!leg.error.empty()) {
        os << leg.error;
        return os.str();
    }
    if (!leg.completed) {
        os << "did not complete: "
           << (leg.result.hung ? "hung (watchdog gave up or cycle "
                                 "budget exhausted)"
                               : "cancelled")
           << " after " << leg.result.cycles << " cycles, "
           << leg.result.rRetired << " retired";
        return os.str();
    }
    if (leg.result.output != golden.run.output) {
        os << "output mismatch: "
           << diffOutput(golden.run.output, leg.result.output);
        return os.str();
    }
    if (exact && leg.result.rRetired != golden.run.instCount) {
        os << "retired " << leg.result.rRetired << " instructions, "
           << "functional reference retired " << golden.run.instCount;
        return os.str();
    }
    if (!exact && leg.result.rRetired > golden.run.instCount) {
        os << "retired " << leg.result.rRetired
           << " instructions, more than the functional reference's "
           << golden.run.instCount;
        return os.str();
    }

    if (exact) {
        if (leg.stores.size() != golden.stores.size()) {
            os << "retired-store stream length " << leg.stores.size()
               << " != golden " << golden.stores.size();
            return os.str();
        }
        for (size_t i = 0; i < golden.stores.size(); ++i) {
            if (!(leg.stores[i] == golden.stores[i])) {
                os << "retired-store stream diverges at store " << i
                   << ":\n  golden: " << describe(golden.stores[i])
                   << "\n  leg:    " << describe(leg.stores[i]);
                return os.str();
            }
        }
    }

    const ArchState &state = proc.archState();
    for (RegIndex r = 0; r < kNumRegs; ++r) {
        if (state.readReg(r) != golden.regs[r]) {
            os << "final register file diverges at " << regName(r)
               << ": golden " << hex(golden.regs[r]) << ", leg "
               << hex(state.readReg(r));
            return os.str();
        }
    }

    if (!func.memory().equals(proc.rMemory())) {
        os << "final memory image differs from the functional "
              "reference";
        return os.str();
    }
    return "";
}

} // namespace

OracleVerdict
runOracle(const Program &program, const OracleOptions &options)
{
    OracleVerdict verdict;

    // Leg 1: the functional reference, observing every retired store.
    FuncSim func(program);
    Golden golden;
    golden.run = func.runWithStoreObserver(
        [&golden](Addr pc, Addr addr, unsigned bytes, Word value) {
            golden.stores.push_back({pc, addr, bytes, value});
        },
        options.maxInsts);
    if (!golden.run.halted) {
        verdict.diverged = true;
        verdict.report = "[functional] did not halt within " +
                         std::to_string(options.maxInsts) +
                         " instructions (non-terminating program?)";
        return verdict;
    }
    for (RegIndex r = 0; r < kNumRegs; ++r)
        golden.regs[r] = func.state().readReg(r);

    const invariants::Scope scope(options.invariants);

    // Leg 2: the full slipstream dual-core.
    Cycle cycles = 0;
    {
        SlipstreamProcessor proc(program, options.params);
        Leg leg = runLeg(proc, options.faults, options.maxCycles);
        verdict.report = compareLeg("slipstream", golden, leg, proc,
                                    func, /*exact=*/true);
        if (!verdict.report.empty()) {
            verdict.diverged = true;
            return verdict;
        }
        cycles = leg.result.cycles;
    }

    // Leg 2 through a checkpoint: captured halfway, finished restored.
    {
        SlipstreamProcessor proc(program, options.params);
        SlipstreamProcessor restored(program, options.params);
        Leg leg;
        SlipstreamProcessor &finisher =
            runCheckpointLeg(leg, proc, restored, options.faults,
                             cycles / 2, options.maxCycles);
        verdict.report = compareLeg("checkpoint", golden, leg, finisher,
                                    func, /*exact=*/true);
        if (verdict.report.empty() && leg.result.cycles != cycles) {
            verdict.report = "[checkpoint] restored run ended at cycle " +
                             std::to_string(leg.result.cycles) +
                             ", the uninterrupted run at " +
                             std::to_string(cycles);
        }
        if (!verdict.report.empty()) {
            verdict.diverged = true;
            return verdict;
        }
    }

    // Leg 3: degraded R-only, forced mid-run.
    {
        SlipstreamParams params = options.params;
        params.degrade.enabled = true;
        params.degrade.forceAtCycle = options.degradeAtCycle;
        SlipstreamProcessor proc(program, params);
        // The demo faults target the slipstream leg; the degraded leg
        // runs clean so a divergence here always means the
        // degradation path itself broke architectural state.
        Leg leg = runLeg(proc, {}, options.maxCycles);
        verdict.report = compareLeg("r_only_degraded", golden, leg,
                                    proc, func, /*exact=*/false);
        if (!verdict.report.empty()) {
            verdict.diverged = true;
            return verdict;
        }
    }

    return verdict;
}

} // namespace slip::fuzz
