/**
 * @file
 * Transient-fault injection (paper §3, Figure 5), grown into a
 * campaign-grade subsystem: multiple faults per run, targets across
 * every structure the slipstream fault argument touches, and per-fault
 * detection-latency bookkeeping.
 *
 * Injection targets:
 *
 *  - AStream:   the A-stream copy of a redundantly executed
 *               instruction's result. The corrupted value reaches the
 *               delay buffer (and the A context); the R-stream's
 *               redundant computation disagrees -> detected as a
 *               "misprediction", recovered from R-stream state
 *               (scenario #1, A-side).
 *  - RPipeline: the R-stream copy *in the pipeline* (before
 *               architectural state). Redundantly executed -> the
 *               comparison disagrees -> detected and squashed
 *               (scenario #1, R-side). Skipped in the A-stream ->
 *               nothing to compare against and the corrupted value
 *               silently retires (scenario #2).
 *  - DelayBufferValue:  a communicated value payload corrupted *in
 *               transit* between the cores (after A computed it,
 *               before R compares): dest value, memory address, or
 *               branch outcome of an executed slot. Always compared,
 *               so always detectable.
 *  - DelayBufferBranch: a communicated branch outcome flipped in
 *               transit — the executed slot's taken bit, or a removed
 *               branch's presumed path direction.
 *  - IRPredictor: a bit of the predictor's SRAM — the confidence
 *               counter (bits 0-7) or the stored ir-vec (bits 8+) of
 *               the entry the A-stream is about to consult. A wrong
 *               removal plan corrupts the A-stream only; the
 *               IR-detector/R-stream checks expose it.
 *  - ARegister: one bit of an A-stream architectural register (plan
 *               field `reg` picks which). Pure A-context corruption:
 *               healed by any subsequent recovery.
 *  - MemoryCell: one bit of an 8-byte cell of the *authoritative*
 *               memory image, at the address of a load/store reaching
 *               the plan's index. Both streams read the corrupted
 *               cell, so slipstream redundancy cannot see it — the
 *               paper leaves main memory to ECC, and this target
 *               quantifies exactly that hole.
 *  - AStreamStall: the A-stream front end wedges permanently (models
 *               a fault derailing A control flow into a livelock).
 *               Only the processor's forward-progress watchdog can
 *               expose it; the forced recovery heals it.
 *
 * Dynamic indices address the R-stream's walk order for R-side
 * targets and the A-stream's walk order for A-side targets, so
 * campaigns are reproducible. Targets with data-dependent trigger
 * conditions (DelayBufferBranch, MemoryCell) fire at the first
 * eligible instruction at or after the planned index.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_FAULT_INJECTOR_HH
#define SLIPSTREAM_SLIPSTREAM_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"

namespace slip
{

/** Where the flipped bit lands. */
enum class FaultTarget : uint8_t
{
    AStream,           // the A-stream's copy of the instruction
    RPipeline,         // the R-stream's copy, pre-architectural-state
    DelayBufferValue,  // value payload corrupted between the cores
    DelayBufferBranch, // branch outcome corrupted between the cores
    IRPredictor,       // predictor confidence/ir-vec state bit
    ARegister,         // A-stream architectural register bit
    MemoryCell,        // raw cell of the authoritative memory image
    AStreamStall,      // A-stream front end wedges (watchdog territory)
};

/** The greatest FaultTarget (the wire decoder's range check). */
constexpr FaultTarget
lastEnumerator(FaultTarget)
{
    return FaultTarget::AStreamStall;
}

/** "a_stream", "r_pipeline", ... (report keys). */
const char *faultTargetName(FaultTarget target);

/** A single planned transient fault. */
struct FaultPlan
{
    FaultTarget target = FaultTarget::RPipeline;
    uint64_t dynIndex = 0; // dynamic instruction index (see file doc)
    unsigned bit = 0;      // which bit flips (0..63)
    RegIndex reg = 0;      // ARegister only: victim register

    /** The wire fields, in order (see harness/wire.hh). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("fault target", self.target);
        v("dynamic index", self.dynIndex);
        v("bit", self.bit);
        v("register", self.reg);
    }

    /** Flip the planned bit in a value. */
    Word
    flip(Word value) const
    {
        return value ^ (Word(1) << (bit & 63));
    }
};

/** One planned fault's life story (filled in during the run). */
struct FaultRecord
{
    FaultPlan plan;
    bool fired = false;    // an eligible injection point was reached
    bool injected = false; // a physical victim existed and was hit
    bool targetWasRedundant = false; // victim executed in both streams
    bool detected = false; // exposed by a comparison (or forced
                           // recovery for A-side state faults)
    Addr pc = 0;           // victim instruction / trace start
    Cycle injectCycle = 0; // when the bit flipped
    Cycle detectCycle = 0; // when the repairing recovery ran

    /** The wire fields, in order (see harness/wire.hh). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("plan", self.plan);
        v("fired", self.fired);
        v("injected", self.injected);
        v("target was redundant", self.targetWasRedundant);
        v("detected", self.detected);
        v("pc", self.pc);
        v("inject cycle", self.injectCycle);
        v("detect cycle", self.detectCycle);
    }

    /** Cycles from injection to the repairing recovery. */
    Cycle
    detectionLatency() const
    {
        return detected && detectCycle >= injectCycle
                   ? detectCycle - injectCycle
                   : 0;
    }
};

/**
 * What the campaign actually did. The legacy single-fault fields
 * summarize the whole plan list (injected = any fault landed,
 * detected = every landed fault was detected) so existing callers
 * keep their semantics; `records` has the per-fault story.
 */
struct FaultOutcome
{
    bool injected = false;
    bool targetWasRedundant = false; // first injected fault's
    bool detected = false;
    Addr pc = 0; // first injected fault's victim

    unsigned planned = 0;
    unsigned numInjected = 0;
    unsigned numDetected = 0;
    std::vector<FaultRecord> records;

    /** The wire fields, in order (see harness/wire.hh). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("injected", self.injected);
        v("target was redundant", self.targetWasRedundant);
        v("detected", self.detected);
        v("pc", self.pc);
        v("planned", self.planned);
        v("injected count", self.numInjected);
        v("detected count", self.numDetected);
        v("fault records", self.records);
    }
};

/**
 * The index spaces injection sites live in. Each FaultTarget belongs
 * to exactly one point; sites call fire() with their running index.
 */
enum class InjectPoint : uint8_t
{
    RSlot,       // per R-stream walked instruction
    ASlot,       // per A-stream executed slot
    ATraceStart, // per A-stream trace-walk start
};

/**
 * Injection bookkeeping shared with the stream walkers. Arm one plan
 * (the legacy single-event-upset interface) or a whole list; the
 * walkers poll fire() at each site and apply whatever it returns.
 */
class FaultInjector
{
  public:
    FaultInjector() = default;

    /** Arm one fault for the coming run (replaces any prior plan). */
    void arm(const FaultPlan &plan);

    /** Arm a multi-fault plan list for the coming run. */
    void arm(const std::vector<FaultPlan> &plans);

    bool armed() const { return firedCount_ < outcome_.records.size(); }

    /** Simulation clock, for latency stamping. Call once per cycle. */
    void setNow(Cycle now) { now_ = now; }

    /**
     * Poll one injection site: returns the next un-fired record whose
     * plan is eligible at (point, index), marked fired and stamped
     * with the injection cycle — or nullptr. Call in a loop: several
     * plans may name the same site. The caller applies the corruption
     * and fills injected/targetWasRedundant/pc.
     */
    FaultRecord *
    fire(InjectPoint point, uint64_t index, const StaticInst *si = nullptr)
    {
        if (index < gate_[unsigned(point)])
            return nullptr;
        return fireAt(point, index, si);
    }

    /**
     * A recovery completed: stamp detection latency for detected
     * faults awaiting repair, and count outstanding A-side state
     * faults (ARegister, IRPredictor, AStreamStall) as detected —
     * recovery resynchronizes the whole A context from the R-stream,
     * which genuinely heals them whatever triggered it.
     */
    void onRecovery(Cycle now);

    /**
     * An external detection backend (replay) observed a
     * retirement-state mismatch at `now`. Marks live fault records
     * the slipstream sphere itself cannot see — the silently-retiring
     * targets (non-redundant RPipeline, MemoryCell) — as detected and
     * stamps their latency. Returns how many records were newly
     * marked, so backends can count genuine coverage rather than raw
     * mismatch events.
     */
    unsigned onExternalDetection(Cycle now);

    /** Aggregate + per-fault outcomes (aggregates recomputed). */
    const FaultOutcome &outcome();

    /** The checkpoint field list (common/checkpoint.hh). */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar(self.outcome_, self.firedCount_, self.now_, self.gate_);
    }

  private:
    /** fire() past the gate: scan the plans for an eligible one. */
    FaultRecord *fireAt(InjectPoint point, uint64_t index,
                        const StaticInst *si);

    bool eligible(const FaultPlan &plan, InjectPoint point,
                  uint64_t index, const StaticInst *si) const;
    void refreshGate(InjectPoint point);

    FaultOutcome outcome_;
    size_t firedCount_ = 0;
    Cycle now_ = 0;

    /** Per-point fast gate: smallest un-fired dynIndex (hot path). */
    uint64_t gate_[3] = {UINT64_MAX, UINT64_MAX, UINT64_MAX};
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_FAULT_INJECTOR_HH
