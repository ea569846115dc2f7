/**
 * @file
 * Experiment driver: runs workloads on the paper's three processor
 * models — SS(64x4), SS(128x8), and the CMP(2x64x4) slipstream
 * processor — validates every run's program output against the
 * functional simulator, and collects the metrics the paper's tables
 * and figures report.
 */

#ifndef SLIPSTREAM_HARNESS_EXPERIMENT_HH
#define SLIPSTREAM_HARNESS_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>

#include "assembler/program.hh"
#include "common/cancel.hh"
#include "detect/detection_backend.hh"
#include "slipstream/slipstream_processor.hh"
#include "uarch/ss_processor.hh"
#include "workloads/workloads.hh"

namespace slip
{

/** Everything measured for one workload on one model. */
struct RunMetrics
{
    std::string model;   // "SS(64x4)", "SS(128x8)", "CMP(2x64x4)"
    Cycle cycles = 0;
    uint64_t retired = 0;
    double ipc = 0.0;
    double branchMispPer1000 = 0.0;
    bool outputCorrect = false;
    uint64_t outputBytes = 0;

    // Slipstream-only metrics (zero for the SS models).
    double removedFraction = 0.0;
    std::map<std::string, uint64_t> removedByReason;
    ReasonCounts removedByReasonMask{};
    double irMispPer1000 = 0.0;
    double avgIRPenalty = 0.0;
    uint64_t recoveries = 0;

    // Robustness telemetry (slipstream only).
    bool cancelled = false;     // a supervisor deadline reaped the run
    bool hung = false;          // run did not complete
    unsigned watchdogTrips = 0; // watchdog-forced recoveries
    bool degraded = false;      // shed the A-stream mid-run
    Cycle degradedAtCycle = 0;
    uint64_t rOnlyRetired = 0;

    // Detection-backend telemetry (slipstream only; the backend named
    // by SlipstreamParams::detect observes every retired instruction).
    std::string detectBackend;         // "slipstream"|"replay"
    uint64_t detectChecked = 0;        // instructions validated
    uint64_t detectMismatches = 0;     // raw mismatch events
    uint64_t detectExternal = 0;       // fault records newly detected
    uint64_t detectReplays = 0;        // replay windows flushed
    uint64_t detectReplayedInsts = 0;  // instructions re-executed
    uint64_t detectOverheadCycles = 0; // modeled detection cost

    // Fault-campaign result (meaningful when a FaultPlan was armed).
    FaultOutcome faultOutcome;

    /** The wire fields, in order (see harness/wire.hh). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("model", self.model);
        v("cycles", self.cycles);
        v("retired", self.retired);
        v("ipc", self.ipc);
        v("branch mispredictions", self.branchMispPer1000);
        v("output correct", self.outputCorrect);
        v("output bytes", self.outputBytes);
        v("removed fraction", self.removedFraction);
        v("removed by reason", self.removedByReason);
        v("removedByReasonMask", self.removedByReasonMask);
        v("IR mispredictions", self.irMispPer1000);
        v("IR penalty", self.avgIRPenalty);
        v("recoveries", self.recoveries);
        v("cancelled", self.cancelled);
        v("hung", self.hung);
        v("watchdog trips", self.watchdogTrips);
        v("degraded", self.degraded);
        v("degraded at cycle", self.degradedAtCycle);
        v("R-only retired", self.rOnlyRetired);
        v("detect backend", self.detectBackend);
        v("detect checked", self.detectChecked);
        v("detect mismatches", self.detectMismatches);
        v("detect external", self.detectExternal);
        v("detect replays", self.detectReplays);
        v("detect replayed insts", self.detectReplayedInsts);
        v("detect overhead cycles", self.detectOverheadCycles);
        v("fault outcome", self.faultOutcome);
    }
};

/** The paper's core processor configurations. */
CoreParams ss64x4Params();
CoreParams ss128x8Params();
SlipstreamParams cmp2x64x4Params();

/**
 * Assemble and functionally execute a workload, returning the golden
 * output (also sanity-checks it terminates).
 */
std::string goldenOutput(const Program &program);

/** Run a program on a conventional superscalar model. */
RunMetrics runSS(const Program &program, const CoreParams &core,
                 const std::string &modelName,
                 const std::string &golden);

/**
 * Run a program on the slipstream CMP model. When `fault` is given,
 * the injector is armed with it before the run and the outcome lands
 * in RunMetrics::faultOutcome.
 */
RunMetrics runSlipstream(const Program &program,
                         const SlipstreamParams &params,
                         const std::string &golden,
                         const FaultPlan *fault = nullptr);

/**
 * One slipstream simulation with its detection backend wired in: the
 * body of runSlipstream(), in stages, so a caller can advance the
 * processor, capture it, or restore a capture into it before running
 * it out. The processor's hooks point at this object, so it neither
 * copies nor moves.
 */
class SlipstreamSim
{
  public:
    SlipstreamSim(const Program &program, const SlipstreamParams &params);

    SlipstreamSim(const SlipstreamSim &) = delete;
    SlipstreamSim &operator=(const SlipstreamSim &) = delete;

    SlipstreamProcessor &proc() { return proc_; }

    /** Processor and backend state at the processor's cycle boundary. */
    std::string capture() const;

    /** Restore capture()'s bytes into this freshly built simulation. */
    void restore(const std::string &bytes);

    /**
     * Run the processor out under `maxCycles` (0 = no cap), drain the
     * backend, and report, checking the output against `golden`.
     */
    RunMetrics finish(const std::string &golden, Cycle maxCycles,
                      const CancelToken *cancel);

  private:
    SlipstreamParams params_;
    SlipstreamProcessor proc_;
    std::unique_ptr<DetectionBackend> backend_;
};

/**
 * Multi-fault variant: arms the whole plan list and (when `maxCycles`
 * is nonzero) caps the run — a hung run then reports `hung` instead
 * of spinning forever. A supervisor may pass a CancelToken; the cycle
 * loop polls it and a reaped run reports `cancelled`.
 */
RunMetrics runSlipstream(const Program &program,
                         const SlipstreamParams &params,
                         const std::string &golden,
                         const std::vector<FaultPlan> &faults,
                         Cycle maxCycles,
                         const CancelToken *cancel = nullptr);

/**
 * Run one workload on all three models (assembling once), validating
 * outputs. Keyed by model name. The three model runs execute as
 * parallel jobs when defaultJobs() allows.
 */
std::map<std::string, RunMetrics> runAllModels(const Workload &workload);

} // namespace slip

#endif // SLIPSTREAM_HARNESS_EXPERIMENT_HH
