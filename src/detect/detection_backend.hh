/**
 * @file
 * The DetectionBackend interface: error detection factored out of the
 * slipstream core so rival architectures can ride the same processor,
 * the same 8-target FaultInjector and the same campaign harness.
 *
 * A backend is an *observer* of the retired instruction stream — it
 * detects corruption but never repairs it (repair stays with the
 * slipstream recovery controller). The processor drives four hooks:
 *
 *   onRetire    every architecturally retired instruction, in program
 *               order, with the functional ExecResult it retired with
 *   onSuspicion a recovery fired (IR-misprediction, fault comparison
 *               trip, or watchdog) — replay-style backends use this
 *               to flush their window early
 *   onDegrade   the processor fell back to R-only mode and flushed
 *               walked-but-unretired instructions whose architectural
 *               effects are already applied; the retired stream has a
 *               gap, so backends must resync from the authoritative
 *               state snapshot passed in
 *   finish      end of run — drain buffered work so late mismatches
 *               still count
 *
 * Mismatches found by a backend are pushed back into the injector
 * (FaultInjector::onExternalDetection) so per-backend coverage and
 * detection-latency histograms fall out of the existing campaign
 * bookkeeping unchanged.
 */

#ifndef SLIPSTREAM_DETECT_DETECTION_BACKEND_HH
#define SLIPSTREAM_DETECT_DETECTION_BACKEND_HH

#include <memory>

#include "common/checkpoint.hh"
#include "detect/detect_params.hh"
#include "uarch/core.hh"

namespace slip
{

class ArchState;
class FaultInjector;
class Memory;
class Program;

/** One error-detection architecture observing a slipstream run. */
class DetectionBackend
{
  public:
    explicit DetectionBackend(FaultInjector &injector)
        : injector_(&injector)
    {}
    virtual ~DetectionBackend() = default;

    /** One instruction retired architecturally at cycle `now`. */
    virtual void onRetire(const DynInst &d, Cycle now) = 0;

    /** A recovery (any trigger) completed at cycle `now`. */
    virtual void onSuspicion(Cycle now) = 0;

    /**
     * The processor degraded to R-only mode at cycle `now`, creating
     * a retired-stream gap; `resume`/`mem` are the authoritative
     * register file and memory image to resync from.
     */
    virtual void onDegrade(const ArchState &resume, const Memory &mem,
                           Cycle now) = 0;

    /** End of run at cycle `now`: drain any buffered validation. */
    virtual void finish(Cycle now) = 0;

    /**
     * Append the backend's state at a cycle boundary to `out`
     * (common/checkpoint.hh), beside its processor's capture.
     */
    virtual void capture(ckpt::Writer &out) const { out(stats_); }

    /** Restore a capture into this freshly built backend. */
    virtual void restore(ckpt::Reader &in) { in(stats_); }

    const DetectStats &stats() const { return stats_; }

  protected:
    /**
     * Record a mismatch observed at cycle `now`: bumps the raw
     * counter and asks the injector to mark any live R-visible fault
     * records as externally detected (stamping detection latency).
     */
    void reportMismatch(Cycle now);

    DetectStats stats_;

  private:
    FaultInjector *injector_;
};

/**
 * Build the backend `params.kind` names. `program` backs the replay
 * backend's shadow context; the slipstream passthrough ignores it.
 */
std::unique_ptr<DetectionBackend> makeDetectionBackend(
    const DetectParams &params, const Program &program,
    FaultInjector &injector);

} // namespace slip

#endif // SLIPSTREAM_DETECT_DETECTION_BACKEND_HH
