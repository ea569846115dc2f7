/**
 * @file
 * Trace identification and construction (Jacobson-style path-based
 * next-trace prediction substrate, paper §2.1.1).
 *
 * A trace is a dynamic instruction sequence of up to 32 instructions,
 * possibly spanning multiple taken branches. A trace id is the start PC
 * plus the outcomes of the embedded conditional branches; together with
 * the static program text this uniquely determines the instructions in
 * the trace.
 *
 * The selection policy is deterministic and static (required for trace
 * alignment between the IR-predictor, the A-stream, and the
 * IR-detector): a trace ends when it reaches the maximum length, or
 * just after an indirect jump (JALR) or HALT.
 *
 * Naming note: "trace" here means the trace-cache fetch unit above —
 * not the *observability* traces in src/obs/ (trace_event.hh), which
 * record simulator events for Perfetto. The two subsystems are
 * unrelated; see DESIGN.md §5.
 */

#ifndef SLIPSTREAM_UARCH_TRACE_HH
#define SLIPSTREAM_UARCH_TRACE_HH

#include <cstdint>
#include <string>

#include "common/bitutils.hh"
#include "common/types.hh"
#include "isa/isa.hh"

namespace slip
{

/** Maximum dynamic instructions per trace (paper: length-32 traces). */
constexpr unsigned kMaxTraceLen = 32;

/**
 * Longest trace a TracePolicy may ask for: a trace id keeps one bit
 * per conditional branch in 64-bit `branchBits`, and the ir-vec one
 * bit per slot in 64.
 */
constexpr unsigned kTraceLenLimit = 64;

/**
 * Trace selection policy. `endAtBackwardTaken` additionally terminates
 * traces after a taken backward branch (loop-closing edge). This keeps
 * trace boundaries phase-aligned with loop iterations, which the
 * single-confidence-counter-per-trace removal scheme needs: without
 * it, a loop whose body length does not divide the trace length
 * produces a different trace id per alignment phase and confidence
 * never saturates — the "unstable traces" effect the paper's §2.1.3
 * discusses. The ablation bench sweeps this knob. `maxLen` must lie
 * in [1, kTraceLenLimit]; the fetch front end refuses anything else.
 */
struct TracePolicy
{
    unsigned maxLen = kMaxTraceLen;
    bool endAtBackwardTaken = true;
};

/**
 * Should the trace end *after* this instruction? `taken` is the
 * instruction's (actual or presumed) direction and `nextPc` its
 * follow-on fetch address.
 */
inline bool
endsTraceAfter(const TracePolicy &policy, const StaticInst &si,
               bool taken, Addr pc, Addr nextPc)
{
    if (si.isIndirectJump() || si.isHalt())
        return true;
    if (policy.endAtBackwardTaken && si.isControl() && taken &&
        nextPc <= pc) {
        return true;
    }
    return false;
}

/** Identity of one dynamic trace. */
struct TraceId
{
    Addr startPc = 0;
    uint64_t branchBits = 0;  // bit i = taken-ness of i-th cond branch
    uint8_t numBranches = 0;
    uint8_t length = 0;       // instructions in the trace

    bool operator==(const TraceId &other) const = default;

    bool valid() const { return length > 0; }

    /**
     * Grow the trace by one instruction; `taken` is its (actual or
     * presumed) direction. The only code that extends a trace id.
     */
    void
    append(const StaticInst &si, bool taken)
    {
        if (si.isCondBranch()) {
            if (taken)
                branchBits |= uint64_t(1) << numBranches;
            ++numBranches;
        }
        ++length;
    }

    /** 64-bit identity hash for predictor indexing and tags. */
    uint64_t
    hash() const
    {
        uint64_t h = mix64(startPc);
        h = hashCombine(h, branchBits);
        h = hashCombine(h, (uint64_t(numBranches) << 8) | length);
        return h;
    }
};

/** Human-readable form, e.g. "{pc=0x1000 len=32 br=3 bits=TNT}". */
std::string to_string(const TraceId &id);

} // namespace slip

#endif // SLIPSTREAM_UARCH_TRACE_HH
