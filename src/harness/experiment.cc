#include "harness/experiment.hh"

#include <memory>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "detect/detection_backend.hh"
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

RunMetrics
runSlipstream(const Program &program, const SlipstreamParams &params,
              const std::string &golden, const FaultPlan *fault)
{
    std::vector<FaultPlan> faults;
    if (fault)
        faults.push_back(*fault);
    return runSlipstream(program, params, golden, faults, 0);
}

RunMetrics
runSlipstream(const Program &program, const SlipstreamParams &params,
              const std::string &golden,
              const std::vector<FaultPlan> &faults, Cycle maxCycles,
              const CancelToken *cancel)
{
    SlipstreamProcessor proc(program, params);
    if (!faults.empty())
        proc.faultInjector().arm(faults);

    // The detection backend observes the architectural stream; the
    // processor only detects/repairs through its native mechanism.
    const std::unique_ptr<DetectionBackend> backend =
        makeDetectionBackend(params.detect, program,
                             proc.faultInjector());
    proc.onArchRetire = [&](const DynInst &d, Cycle now) {
        backend->onRetire(d, now);
    };
    proc.onRecoveryEvent = [&](Cycle now) { backend->onSuspicion(now); };
    proc.onDegradeEvent = [&](Cycle now) {
        backend->onDegrade(proc.archState(), proc.rMemory(), now);
    };

    const SlipstreamRunResult r = proc.run(maxCycles, cancel);
    backend->finish(r.cycles);

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
    m.detectBackend = detectBackendName(params.detect.kind);
    m.detectChecked = backend->stats().checked;
    m.detectMismatches = backend->stats().mismatches;
    m.detectExternal = backend->stats().externalDetections;
    m.detectReplays = backend->stats().replays;
    m.detectReplayedInsts = backend->stats().replayedInsts;
    m.detectOverheadCycles = backend->stats().overheadCycles;
    // Re-fetch rather than copying r.faultOutcome: finish() drains
    // buffered validation and may mark detections after run() already
    // snapshotted the outcome.
    m.faultOutcome = proc.faultInjector().outcome();
    return m;
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
