#include "harness/experiment.hh"

#include <memory>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "func/func_sim.hh"
#include "harness/sim_runner.hh"

namespace slip
{

CoreParams
ss64x4Params()
{
    CoreParams p; // defaults are the paper's Table 2 single processor
    p.name = "ss64x4";
    return p;
}

CoreParams
ss128x8Params()
{
    CoreParams p = CoreParams::wide8();
    p.name = "ss128x8";
    return p;
}

SlipstreamParams
cmp2x64x4Params()
{
    return SlipstreamParams{}; // Table 2 defaults throughout
}

std::string
goldenOutput(const Program &program)
{
    FuncSim sim(program);
    const FuncRunResult r = sim.run();
    if (!r.halted)
        SLIP_FATAL("workload did not halt within the functional "
                   "simulator's instruction limit");
    return r.output;
}

RunMetrics
runSS(const Program &program, const CoreParams &core,
      const std::string &modelName, const std::string &golden)
{
    SSProcessor proc(program, core);
    const SSRunResult r = proc.run();

    RunMetrics m;
    m.model = modelName;
    m.cycles = r.cycles;
    m.retired = r.retired;
    m.ipc = r.ipc();
    m.branchMispPer1000 = r.mispPer1000();
    m.outputCorrect = r.halted && r.output == golden;
    m.outputBytes = r.output.size();
    return m;
}

SlipstreamSim::SlipstreamSim(const Program &program,
                             const SlipstreamParams &params)
    : params_(params), proc_(program, params),
      // The detection backend observes the architectural stream; the
      // processor only detects/repairs through its native mechanism.
      backend_(makeDetectionBackend(params.detect, program,
                                    proc_.faultInjector()))
{
    proc_.onArchRetire = [this](const DynInst &d, Cycle now) {
        backend_->onRetire(d, now);
    };
    proc_.onRecoveryEvent = [this](Cycle now) {
        backend_->onSuspicion(now);
    };
    proc_.onDegradeEvent = [this](Cycle now) {
        backend_->onDegrade(proc_.archState(), proc_.rMemory(), now);
    };
}

std::string
SlipstreamSim::capture() const
{
    ckpt::Writer out(proc_.now());
    proc_.capture(out);
    backend_->capture(out);
    return out.take();
}

void
SlipstreamSim::restore(const std::string &bytes)
{
    ckpt::Reader in(bytes);
    proc_.restore(in);
    backend_->restore(in);
    SLIP_ASSERT(in.atEnd(), "checkpoint has bytes no component read");
}

RunMetrics
SlipstreamSim::finish(const std::string &golden, Cycle maxCycles,
                      const CancelToken *cancel)
{
    const SlipstreamRunResult r = proc_.run(maxCycles, cancel);
    backend_->finish(r.cycles);
    const DetectStats &detect = backend_->stats();

    RunMetrics m;
    m.model = "CMP(2x64x4)";
    m.cycles = r.cycles;
    m.retired = r.rRetired;
    m.ipc = r.ipc();
    m.branchMispPer1000 = r.mispPer1000();
    m.outputCorrect = r.halted && r.output == golden;
    m.outputBytes = r.output.size();
    m.cancelled = r.cancelled;
    m.removedFraction = r.removedFraction();
    m.removedByReason = r.removedByReason;
    m.removedByReasonMask = r.removedByReasonMask;
    m.irMispPer1000 = r.irMispPer1000();
    m.avgIRPenalty = r.avgIRPenalty();
    m.recoveries = r.irMispredicts;
    m.hung = r.hung;
    m.watchdogTrips = r.watchdogTrips;
    m.degraded = r.degraded;
    m.degradedAtCycle = r.degradedAtCycle;
    m.rOnlyRetired = r.rOnlyRetired;
    m.detectBackend = detectBackendName(params_.detect.kind);
    m.detectChecked = detect.checked;
    m.detectMismatches = detect.mismatches;
    m.detectExternal = detect.externalDetections;
    m.detectReplays = detect.replays;
    m.detectReplayedInsts = detect.replayedInsts;
    m.detectOverheadCycles = detect.overheadCycles;
    // Re-fetch rather than copying r.faultOutcome: finish() drains
    // buffered validation and may mark detections after run() already
    // snapshotted the outcome.
    m.faultOutcome = proc_.faultInjector().outcome();
    return m;
}

RunMetrics
runSlipstream(const Program &program, const SlipstreamParams &params,
              const std::string &golden,
              const std::vector<FaultPlan> &faults, Cycle maxCycles,
              const CancelToken *cancel)
{
    SlipstreamSim sim(program, params);
    if (!faults.empty())
        sim.proc().faultInjector().arm(faults);
    return sim.finish(golden, maxCycles, cancel);
}

std::map<std::string, RunMetrics>
runAllModels(const Workload &workload)
{
    const Program program = assemble(workload.source);
    const std::string golden = goldenOutput(program);

    SimJobRunner runner;
    runner.add([&] {
        return runSS(program, ss64x4Params(), "SS(64x4)", golden);
    });
    runner.add([&] {
        return runSS(program, ss128x8Params(), "SS(128x8)", golden);
    });
    runner.add([&] {
        return runSlipstream(program, cmp2x64x4Params(), golden);
    });
    const std::vector<RunMetrics> results = runner.run();

    std::map<std::string, RunMetrics> out;
    for (const RunMetrics &m : results)
        out[m.model] = m;
    return out;
}

} // namespace slip
