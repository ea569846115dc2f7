#include "slipstream/fault_injector.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/trace_session.hh"

namespace slip
{

namespace
{

InjectPoint
pointOf(FaultTarget target)
{
    switch (target) {
      case FaultTarget::AStream:
      case FaultTarget::RPipeline:
      case FaultTarget::DelayBufferValue:
      case FaultTarget::DelayBufferBranch:
      case FaultTarget::MemoryCell:
        return InjectPoint::RSlot;
      case FaultTarget::ARegister:
        return InjectPoint::ASlot;
      case FaultTarget::IRPredictor:
      case FaultTarget::AStreamStall:
        return InjectPoint::ATraceStart;
    }
    SLIP_PANIC("unknown fault target ", unsigned(target));
}

} // namespace

const char *
faultTargetName(FaultTarget target)
{
    switch (target) {
      case FaultTarget::AStream:
        return "a_stream";
      case FaultTarget::RPipeline:
        return "r_pipeline";
      case FaultTarget::DelayBufferValue:
        return "delay_buffer_value";
      case FaultTarget::DelayBufferBranch:
        return "delay_buffer_branch";
      case FaultTarget::IRPredictor:
        return "ir_predictor";
      case FaultTarget::ARegister:
        return "a_register";
      case FaultTarget::MemoryCell:
        return "memory_cell";
      case FaultTarget::AStreamStall:
        return "a_stream_stall";
    }
    return "unknown";
}

void
FaultInjector::arm(const FaultPlan &plan)
{
    arm(std::vector<FaultPlan>{plan});
}

void
FaultInjector::arm(const std::vector<FaultPlan> &plans)
{
    outcome_ = FaultOutcome{};
    outcome_.planned = static_cast<unsigned>(plans.size());
    outcome_.records.reserve(plans.size());
    for (const FaultPlan &p : plans) {
        FaultRecord rec;
        rec.plan = p;
        outcome_.records.push_back(rec);
    }
    firedCount_ = 0;
    for (const InjectPoint p : {InjectPoint::RSlot, InjectPoint::ASlot,
                                InjectPoint::ATraceStart}) {
        refreshGate(p);
    }
}

bool
FaultInjector::eligible(const FaultPlan &plan, InjectPoint point,
                        uint64_t index, const StaticInst *si) const
{
    if (pointOf(plan.target) != point)
        return false;
    switch (plan.target) {
      case FaultTarget::AStream:
      case FaultTarget::RPipeline:
      case FaultTarget::DelayBufferValue:
        return index == plan.dynIndex;
      case FaultTarget::DelayBufferBranch:
        // First conditional branch at or after the planned index.
        return index >= plan.dynIndex && si && si->isCondBranch();
      case FaultTarget::MemoryCell:
        // First memory access at or after the planned index (the
        // accessed cell is the victim).
        return index >= plan.dynIndex && si &&
               (si->isLoad() || si->isStore());
      case FaultTarget::ARegister:
      case FaultTarget::IRPredictor:
      case FaultTarget::AStreamStall:
        return index >= plan.dynIndex;
    }
    return false;
}

void
FaultInjector::refreshGate(InjectPoint point)
{
    uint64_t gate = UINT64_MAX;
    for (const FaultRecord &r : outcome_.records) {
        if (!r.fired && pointOf(r.plan.target) == point)
            gate = std::min(gate, r.plan.dynIndex);
    }
    gate_[unsigned(point)] = gate;
}

FaultRecord *
FaultInjector::fireAt(InjectPoint point, uint64_t index,
                      const StaticInst *si)
{
    for (FaultRecord &r : outcome_.records) {
        if (r.fired || !eligible(r.plan, point, index, si))
            continue;
        r.fired = true;
        r.injectCycle = now_;
        ++firedCount_;
        refreshGate(point);
        // Injection opens a span; the matching End fires at detection
        // (onRecovery), so detection latency shows up as span length.
        SLIP_TRACE_AT(obs::Category::Fault, obs::Name::FaultInjected,
                      obs::Phase::Begin, now_,
                      static_cast<uint64_t>(r.plan.target),
                      r.plan.dynIndex);
        return &r;
    }
    return nullptr;
}

void
FaultInjector::onRecovery(Cycle now)
{
    for (FaultRecord &r : outcome_.records) {
        if (!r.fired || !r.injected)
            continue;
        const bool aSideState =
            r.plan.target == FaultTarget::ARegister ||
            r.plan.target == FaultTarget::IRPredictor ||
            r.plan.target == FaultTarget::AStreamStall;
        if (aSideState && !r.detected) {
            // The recovery copied the full R context over the A
            // context, healing the corruption whether or not the
            // divergence it caused was what triggered the recovery.
            r.detected = true;
        }
        if (r.detected && r.detectCycle == 0) {
            r.detectCycle = now;
            SLIP_TRACE_AT(obs::Category::Fault, obs::Name::FaultDetected,
                          obs::Phase::End, now,
                          static_cast<uint64_t>(r.plan.target),
                          r.detectCycle - r.injectCycle);
        }
    }
}

unsigned
FaultInjector::onExternalDetection(Cycle now)
{
    unsigned newly = 0;
    for (FaultRecord &r : outcome_.records) {
        if (!r.fired || !r.injected || r.detected)
            continue;
        // Only claim faults that corrupt R-visible architectural
        // state (the slipstream blind spots). A-side corruption is
        // healed by recovery before it can retire, so an external
        // mismatch can never be evidence of it.
        const bool rVisible =
            r.plan.target == FaultTarget::RPipeline ||
            r.plan.target == FaultTarget::MemoryCell;
        if (!rVisible)
            continue;
        r.detected = true;
        r.detectCycle = now;
        ++newly;
        SLIP_TRACE_AT(obs::Category::Fault, obs::Name::FaultDetected,
                      obs::Phase::End, now,
                      static_cast<uint64_t>(r.plan.target),
                      r.detectCycle - r.injectCycle);
    }
    return newly;
}

const FaultOutcome &
FaultInjector::outcome()
{
    FaultOutcome &o = outcome_;
    o.injected = false;
    o.targetWasRedundant = false;
    o.detected = false;
    o.pc = 0;
    o.numInjected = 0;
    o.numDetected = 0;
    for (const FaultRecord &r : o.records) {
        if (!r.injected)
            continue;
        if (o.numInjected == 0) {
            o.targetWasRedundant = r.targetWasRedundant;
            o.pc = r.pc;
        }
        ++o.numInjected;
        if (r.detected)
            ++o.numDetected;
    }
    o.injected = o.numInjected > 0;
    o.detected = o.injected && o.numDetected == o.numInjected;
    return o;
}

} // namespace slip
