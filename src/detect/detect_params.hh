/**
 * @file
 * Detection-backend selection.
 *
 * Two error-detection architectures share one processor substrate
 * (the slipstream CMP with its 8-target fault injector):
 *
 *  - slipstream: the paper's native mechanism — the R-stream checks
 *    the A-stream through the delay buffer. No extra hardware, no
 *    extra overhead; misses corruption outside the redundant sphere
 *    (non-redundant R-pipeline faults, memory cells).
 *  - replay: RepTFD-style. The retired instruction stream is
 *    re-executed functionally in windows from a rolling shadow
 *    register/memory snapshot; a diff against retirement state
 *    exposes silent architectural corruption. Windows also flush on
 *    suspicion triggers (every recovery, including watchdog-forced).
 *
 * Selection rides $SLIPSTREAM_DETECT (slipstream|replay) and
 * FaultCampaignConfig. Mode knobs parse STRICTLY: an unknown value
 * throws instead of silently falling back (common/env::envChoice).
 */

#ifndef SLIPSTREAM_DETECT_DETECT_PARAMS_HH
#define SLIPSTREAM_DETECT_DETECT_PARAMS_HH

#include <cstdint>
#include <string>

namespace slip
{

/** Which detection architecture observes the run. */
enum class DetectBackendKind : uint8_t
{
    Slipstream, // native delay-buffer comparison only
    Replay,     // windowed functional re-execution (RepTFD-style)
};

inline constexpr unsigned kNumDetectBackends = 2;

/** The greatest backend kind (the wire decoder's range check). */
constexpr DetectBackendKind
lastEnumerator(DetectBackendKind)
{
    return DetectBackendKind::Replay;
}

/** "slipstream", "replay" (report keys). */
const char *detectBackendName(DetectBackendKind kind);

/** Inverse of detectBackendName; false on anything else. */
bool parseDetectBackend(const std::string &text,
                        DetectBackendKind &out);

/**
 * $SLIPSTREAM_DETECT: unset/empty means `fallback`; a listed name
 * wins; anything else throws FatalError listing the valid choices
 * (the strict mode-knob contract).
 */
DetectBackendKind detectBackendFromEnv(
    DetectBackendKind fallback = DetectBackendKind::Slipstream);

/** Backend selection, carried inside SlipstreamParams. */
struct DetectParams
{
    DetectBackendKind kind = DetectBackendKind::Slipstream;

    bool operator==(const DetectParams &) const = default;

    /** The wire and key fields, in order (see harness/wire.hh). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("detect backend", self.kind);
    }
};

/** What a backend did during one run (lands in RunMetrics). */
struct DetectStats
{
    uint64_t checked = 0;    // retired instructions validated
    uint64_t mismatches = 0; // raw mismatch events observed
    /** Fault records newly marked detected by this backend. */
    uint64_t externalDetections = 0;
    uint64_t replays = 0;       // replay windows flushed
    uint64_t replayedInsts = 0; // instructions re-executed
    /** Modeled detection cost in cycles (replay time). */
    uint64_t overheadCycles = 0;
};

} // namespace slip

#endif // SLIPSTREAM_DETECT_DETECT_PARAMS_HH
