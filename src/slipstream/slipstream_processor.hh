/**
 * @file
 * The slipstream processor: two cores of a chip multiprocessor running
 * redundant copies of one program (paper Figure 1).
 *
 * The A-stream core runs the shortened program under IR-predictor
 * control flow; the R-stream core runs the full program, fed control
 * and data flow outcomes through the delay buffer. The IR-detector
 * monitors the R-stream's retired instructions and teaches the
 * IR-predictor; the recovery controller repairs the A-stream context
 * from the R-stream's when an IR-misprediction (or transient fault)
 * is exposed.
 *
 * Program completion and program output are the R-stream's ("the
 * R-stream finishes just after the A-stream, so the R-stream
 * determines when the user's program is done"). IPC is computed as
 * R-stream retired instructions over total cycles, the paper's §5
 * metric.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_SLIPSTREAM_PROCESSOR_HH
#define SLIPSTREAM_SLIPSTREAM_SLIPSTREAM_PROCESSOR_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "assembler/program.hh"
#include "common/cancel.hh"
#include "detect/detect_params.hh"
#include "slipstream/a_stream.hh"
#include "slipstream/removal.hh"
#include "slipstream/delay_buffer.hh"
#include "slipstream/fault_injector.hh"
#include "slipstream/ir_detector.hh"
#include "slipstream/ir_predictor.hh"
#include "slipstream/r_stream.hh"
#include "slipstream/recovery_controller.hh"
#include "uarch/core.hh"
#include "uarch/fetch_source.hh"
#include "uarch/trace_pred.hh"

namespace slip
{

/**
 * Forward-progress watchdog. A fault that derails A-stream control
 * flow (or any model deadlock) starves the R-stream of retirement;
 * after `stallCycles` idle cycles the watchdog forces a recovery —
 * the R-stream context is authoritative, so resynchronizing the
 * A-stream from it restores progress for every A-side derailment.
 * After `maxTrips` forced recoveries without reaching completion the
 * run ends with `hung` set instead of looping forever.
 */
struct WatchdogParams
{
    Cycle stallCycles = 100'000;
    unsigned maxTrips = 8;
};

/**
 * Graceful degradation to R-only execution — the paper's "slipstream
 * mode can be turned off" escape hatch, made operational. When
 * `recoveryThreshold` recoveries land within a sliding window of
 * `windowCycles`, the A-stream is doing more harm than good (a hard
 * fault, or pathologically wrong removal state): shed it and finish
 * the program on the R-stream alone as a conventional processor.
 * The defaults demand a sustained recovery storm no healthy
 * configuration produces.
 */
struct DegradeParams
{
    bool enabled = true;
    Cycle windowCycles = 4096;
    unsigned recoveryThreshold = 24;

    /**
     * Force the transition at this cycle regardless of recovery
     * density (0 = never). Differential-testing hook: the fuzz oracle
     * runs every program through the degraded R-only path too, and a
     * recovery storm cannot be arranged on demand.
     */
    Cycle forceAtCycle = 0;
};

/**
 * The A-stream's one policy: IR-predictor removal, forwarding every
 * executed value (paper §2.1-2.2). The enum, the struct and the name
 * below only name it in bench banners (perfbench/slipbench.cc); no
 * field list, codec, journal or report reads them.
 */
enum class AStreamPolicyKind : uint8_t
{
    IRRemoval,
};

struct AStreamPolicyParams
{
    AStreamPolicyKind kind = AStreamPolicyKind::IRRemoval;
};

constexpr const char *
aStreamPolicyName(AStreamPolicyKind)
{
    return "ir";
}

/** Full configuration of a slipstream processor (Table 2 defaults). */
struct SlipstreamParams
{
    CoreParams aCore = [] {
        CoreParams c;
        c.name = "a_core";
        return c;
    }();
    CoreParams rCore = [] {
        CoreParams c;
        c.name = "r_core";
        return c;
    }();
    TracePredParams tracePred;
    TracePolicy tracePolicy;
    IRPredictorParams irPred;
    IRDetectorParams detector;
    DelayBufferParams delayBuffer;
    RecoveryParams recovery;
    WatchdogParams watchdog;
    DegradeParams degrade;

    /**
     * Which error-detection backend observes the run (and its
     * tuning). The processor itself always runs the native
     * delay-buffer comparison — the backend is an external observer
     * wired up by the harness (see detect/detection_backend.hh).
     */
    DetectParams detect;

    /** Names the A-stream policy; nothing reads it (see above). */
    AStreamPolicyParams aPolicy;

    /**
     * Reset all removal confidence after a recovery. Avoids repeated
     * IR-mispredictions on a persistently wrong entry; forward
     * progress is guaranteed either way (the R-stream retires the
     * exposing instruction before recovery begins).
     */
    bool resetConfidenceOnRecovery = true;
};

/** Results of a slipstream run. */
struct SlipstreamRunResult
{
    Cycle cycles = 0;
    uint64_t rRetired = 0; // the program, counted once
    uint64_t aRetired = 0;
    std::string output; // R-stream (architectural) output
    bool halted = false;

    /** The run did not complete: cycle cap hit or watchdog gave up. */
    bool hung = false;
    unsigned watchdogTrips = 0; // watchdog-forced recoveries

    /** A supervisor's CancelToken ended the run early (not `hung`). */
    bool cancelled = false;

    bool degraded = false;      // shed the A-stream mid-run
    Cycle degradedAtCycle = 0;
    uint64_t rOnlyRetired = 0;  // retired after the transition

    uint64_t removedSlots = 0; // R-retired slots the A-stream skipped

    /** Removal tallies indexed by reason mask (the hot-path form). */
    ReasonCounts removedByReasonMask{};

    /** The same tallies under the paper's category names. */
    std::map<std::string, uint64_t> removedByReason;

    uint64_t aBranchMispredicts = 0; // A-stream-detected conventional
    uint64_t irMispredicts = 0;      // recoveries
    Cycle irPenaltyTotal = 0;        // recovery latency cycles

    FaultOutcome faultOutcome;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(rRetired) / cycles : 0.0;
    }

    double
    removedFraction() const
    {
        return rRetired ? static_cast<double>(removedSlots) / rRetired
                        : 0.0;
    }

    double
    mispPer1000() const
    {
        return rRetired ? 1000.0 *
                              static_cast<double>(aBranchMispredicts) /
                              rRetired
                        : 0.0;
    }

    double
    irMispPer1000() const
    {
        return rRetired
                   ? 1000.0 * static_cast<double>(irMispredicts) /
                         rRetired
                   : 0.0;
    }

    double
    avgIRPenalty() const
    {
        return irMispredicts ? static_cast<double>(irPenaltyTotal) /
                                   irMispredicts
                             : 0.0;
    }
};

/** The two-way CMP slipstream processor. */
class SlipstreamProcessor
{
  public:
    SlipstreamProcessor(const Program &program,
                        const SlipstreamParams &params = {});

    /**
     * Construct with a caller-provided IR-predictor (tests inject
     * adversarial removal policies to prove recovery soundness).
     */
    SlipstreamProcessor(const Program &program,
                        const SlipstreamParams &params,
                        std::unique_ptr<IRPredictor> irPredictor);

    /**
     * Run until the R-stream retires HALT (or maxCycles). When
     * `cancel` is given the cycle loop polls it and winds down
     * cleanly once it fires — the cooperative hook a supervising
     * deadline watchdog reaps a stuck trial through without killing
     * the process.
     */
    SlipstreamRunResult run(Cycle maxCycles = 0,
                            const CancelToken *cancel = nullptr);

    FaultInjector &faultInjector() { return faultInjector_; }

    /**
     * Observer of the architectural instruction stream: called for
     * every instruction the R-side core retires, in retirement order,
     * in slipstream AND degraded R-only mode alike. First-class
     * (rather than wrapping rCore().onRetire) because degradation
     * replaces the core's retire hook — an external wrapper would be
     * silently dropped at the transition. The differential oracle
     * captures the retired-store stream through this.
     *
     * It runs before the source releases the retire record holding
     * `d.exec`, which is valid only during the call: an observer that
     * keeps values copies them.
     */
    std::function<void(const DynInst &, Cycle)> onArchRetire;

    /**
     * Called after every completed recovery, whatever triggered it
     * (IR-misprediction, fault comparison, watchdog). Detection
     * backends treat this as a suspicion trigger.
     */
    std::function<void(Cycle)> onRecoveryEvent;

    /**
     * Called after a degrade-to-R-only transition. The degrade flush
     * discards walked-but-unretired instructions whose architectural
     * effects are already applied, so the retired stream has a gap —
     * observers must resync from archState()/rMemory().
     */
    std::function<void(Cycle)> onDegradeEvent;

    /** The authoritative memory image (all modes run/finish on it). */
    const Memory &rMemory() const { return rMem; }

    /**
     * The architectural context: the R-stream's, or the degraded
     * source's continuation of it after a transition to R-only.
     */
    const ArchState &
    archState()
    {
        return degradedSource_ ? degradedSource_->state()
                               : rSource_->archState();
    }

    // Component access for tests and instrumentation.
    OoOCore &aCore() { return *aCore_; }
    OoOCore &rCore() { return *rCore_; }
    AStreamSource &aSource() { return *aSource_; }
    RStreamSource &rSource() { return *rSource_; }
    IRPredictor &irPredictor() { return *irPred; }
    IRDetector &detector() { return *detector_; }
    DelayBuffer &delayBuffer() { return delayBuffer_; }
    RecoveryController &recoveryController() { return *recovery_; }
    TracePredictor &tracePredictor() { return *tracePred; }
    StatGroup &recoveryCauseStats() { return recoveryStats; }

    /** R-only (non-slipstream) execution after degradation. */
    bool degraded() const { return degraded_; }

  private:
    void wire();
    void doRecovery(Cycle now);
    void degradeToROnly(Cycle now, Cycle resume);

    /** Why a recovery was requested; drives confidence resetting. */
    enum class RecoveryCause : uint8_t
    {
        None,
        RemovedBranchMispredict, // paper §2.3 type 1: the removal was
                                 // sound, the trace prediction was not
        CorruptContextKnown,     // type 2 caught by the IR-detector's
                                 // ir-vec check: culprit entry known
                                 // and already reset
        CorruptContextUnknown,   // type 2 caught as an R-stream value
                                 // mismatch: origin unknown
        WatchdogStall,           // forced by the forward-progress
                                 // watchdog: cause unobservable
    };

    /**
     * Swappable front end for the R core: normally forwards to the
     * R-stream source; after degradation, to a conventional fetch
     * source resumed from the R context.
     */
    struct ForwardingSource : FetchSource
    {
        FetchSource *inner = nullptr;
        bool nextBlock(FetchBlock &b) override
        {
            return inner->nextBlock(b);
        }
        bool exhausted() const override { return inner->exhausted(); }
    };

    SlipstreamParams params_;
    const Program &program;

    Memory rMem; // the authoritative memory image
    std::unique_ptr<TracePredictor> tracePred;
    std::unique_ptr<IRPredictor> irPred;
    DelayBuffer delayBuffer_;
    std::unique_ptr<RecoveryController> recovery_;
    std::unique_ptr<IRDetector> detector_;
    std::unique_ptr<AStreamSource> aSource_;
    std::unique_ptr<RStreamSource> rSource_;
    ForwardingSource rFront_;
    std::unique_ptr<TraceFetchSource> degradedSource_;
    std::unique_ptr<OoOCore> aCore_;
    std::unique_ptr<OoOCore> rCore_;

    PathHistory trainerHistory; // authoritative retired-trace path
    FaultInjector faultInjector_;

    bool recoveryRequested = false;
    RecoveryCause recoveryCause = RecoveryCause::None;
    StatGroup recoveryStats{"recovery_causes"};
    StatGroup::Handle statRemovedBranchMispredict{
        recoveryStats.handle("removed_branch_mispredict")};
    StatGroup::Handle statIrvecCheck{recoveryStats.handle("irvec_check")};
    StatGroup::Handle statValueMismatch{
        recoveryStats.handle("value_mismatch")};
    StatGroup::Handle statUnclassified{
        recoveryStats.handle("unclassified")};
    StatGroup::Handle statWatchdogStall{
        recoveryStats.handle("watchdog_stall")};
    StatGroup::Handle statDegradeToROnly{
        recoveryStats.handle("degrade_to_r_only")};
    uint64_t irMispredicts = 0;
    Cycle irPenaltyTotal = 0;
    uint64_t removedSlots = 0;
    ReasonCounts removedByReasonMask_{};

    // Watchdog + degradation state.
    unsigned watchdogTrips_ = 0;
    bool degraded_ = false;
    Cycle degradedAtCycle_ = 0;
    uint64_t retiredAtDegrade_ = 0;
    std::deque<Cycle> recentRecoveries_; // sliding-window timestamps
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_SLIPSTREAM_PROCESSOR_HH
