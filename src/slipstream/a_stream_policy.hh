/**
 * @file
 * The A-stream shortening policy: which slots the A-stream skips and
 * what each of its packets forwards to the R-stream.
 *
 * Two policies (selected by $SLIPSTREAM_ASTREAM_POLICY / --policy,
 * strict mode-knob contract):
 *
 *  - ir: the paper's mechanism, IR-predictor removal of
 *    predicted-ineffectual instructions; packets forward the values
 *    of every executed slot.
 *  - reliability: the same removal, but every packet forwards control
 *    only, so a corrupted A-stream context can never plant a wrong
 *    value in the delay buffer for the R-stream to consume as a
 *    prediction. A recovery also suspends removal for
 *    kCooldownTraces traces, so a poisoned IR-predictor entry cannot
 *    shorten the restart path at once.
 *
 * Stripping happens after the A-core's fetch blocks are emitted, so
 * A-side timing is untouched; only the A->R communication changes.
 * Path fields survive stripping so direction-only branch validation
 * still works, and the R-stream executes stripped slots natively
 * against the authoritative context, so architectural output is
 * correct under either policy.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_A_STREAM_POLICY_HH
#define SLIPSTREAM_SLIPSTREAM_A_STREAM_POLICY_HH

#include <optional>
#include <string>

#include "common/stats.hh"
#include "slipstream/delay_buffer.hh"
#include "slipstream/ir_predictor.hh"

namespace slip
{

/** Which A-stream shortening strategy drives the walk. */
enum class AStreamPolicyKind : uint8_t
{
    IRRemoval,   // the paper's IR-predictor removal (default)
    Reliability, // removal + control-only forwarding always
};

inline constexpr unsigned kNumAStreamPolicies = 2;

/** The greatest policy kind (the wire decoder's range check). */
constexpr AStreamPolicyKind
lastEnumerator(AStreamPolicyKind)
{
    return AStreamPolicyKind::Reliability;
}

/** "ir", "reliability" (report keys). */
const char *aStreamPolicyName(AStreamPolicyKind kind);

/** Inverse of aStreamPolicyName; false on anything else. */
bool parseAStreamPolicy(const std::string &text,
                        AStreamPolicyKind &out);

/**
 * $SLIPSTREAM_ASTREAM_POLICY: unset/empty means `fallback`; a listed
 * name wins; anything else throws FatalError listing the valid
 * choices (the strict mode-knob contract).
 */
AStreamPolicyKind aStreamPolicyFromEnv(
    AStreamPolicyKind fallback = AStreamPolicyKind::IRRemoval);

/** Policy selection, carried inside SlipstreamParams. */
struct AStreamPolicyParams
{
    AStreamPolicyKind kind = AStreamPolicyKind::IRRemoval;
};

/**
 * One A-stream's shortening policy, driven by AStreamSource once per
 * walked trace. All state is per-instance, so trials stay
 * deterministic across worker counts.
 */
class AStreamPolicy
{
  public:
    /** Reliability: post-recovery traces with removal suspended. */
    static constexpr unsigned kCooldownTraces = 8;

    explicit AStreamPolicy(const AStreamPolicyParams &params);

    /** Removal plan for the trace about to be walked (may be none). */
    std::optional<RemovalPlan>
    planTrace(const IRPredictor &irPredictor, const PathHistory &history,
              const TraceId &predicted);

    /**
     * The walk finished a packet (fetch blocks already emitted; the
     * A-core's timing is fixed). Under reliability every executed
     * slot is demoted to a control-only entry: the path fields
     * survive, the value payload does not.
     */
    void onPacketComplete(Packet &packet);

    /** The A-stream was resynchronized from the R-stream. */
    void onRecovery();

    StatGroup &stats() { return stats_; }

  private:
    AStreamPolicyKind kind_;
    unsigned cooldownLeft = 0;

    StatGroup stats_;
    StatGroup::Handle statCooldowns{stats_.handle("cooldowns")};
    StatGroup::Handle statCooldownTraces{
        stats_.handle("cooldown_traces")};
    StatGroup::Handle statStrippedSlots{
        stats_.handle("stripped_slots")};
    StatGroup::Handle statDataPackets{stats_.handle("data_packets")};
    StatGroup::Handle statControlOnlyPackets{
        stats_.handle("control_only_packets")};
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_A_STREAM_POLICY_HH
