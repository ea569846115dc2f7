#include "detect/detection_backend.hh"

#include "detect/replay_backend.hh"
#include "slipstream/fault_injector.hh"

namespace slip
{

void
DetectionBackend::reportMismatch(Cycle now)
{
    ++stats_.mismatches;
    stats_.externalDetections += injector_->onExternalDetection(now);
}

namespace
{

/**
 * The paper's native mechanism, already implemented inside the
 * slipstream core (R-stream vs. delay buffer): this backend just
 * keeps the books so the shootout compares like with like. Checked
 * work is the redundantly executed (value-predicted) fraction;
 * mismatches are the recoveries the comparison triggered; overhead
 * is zero by construction — detection shares the R-stream's
 * pipeline.
 */
class SlipstreamBackend : public DetectionBackend
{
  public:
    explicit SlipstreamBackend(FaultInjector &injector)
        : DetectionBackend(injector)
    {}

    void
    onRetire(const DynInst &d, Cycle) override
    {
        if (d.valuePredicted)
            ++stats_.checked;
        if (d.triggersRecovery)
            ++stats_.mismatches;
    }

    void onSuspicion(Cycle) override {}
    void onDegrade(const ArchState &, const Memory &, Cycle) override {}
    void finish(Cycle) override {}
};

} // namespace

std::unique_ptr<DetectionBackend>
makeDetectionBackend(const DetectParams &params, const Program &program,
                     FaultInjector &injector)
{
    switch (params.kind) {
      case DetectBackendKind::Replay:
        return std::make_unique<ReplayBackend>(program, injector);
      case DetectBackendKind::Slipstream:
      default:
        return std::make_unique<SlipstreamBackend>(injector);
    }
}

} // namespace slip
