#include "slipstream/a_stream_policy.hh"

#include "common/env.hh"

namespace slip
{

namespace
{

constexpr const char *kPolicyNames[kNumAStreamPolicies] = {
    "ir",
    "reliability",
};

} // namespace

const char *
aStreamPolicyName(AStreamPolicyKind kind)
{
    const auto i = unsigned(kind);
    return i < kNumAStreamPolicies ? kPolicyNames[i] : "?";
}

bool
parseAStreamPolicy(const std::string &text, AStreamPolicyKind &out)
{
    for (unsigned i = 0; i < kNumAStreamPolicies; ++i) {
        if (text == kPolicyNames[i]) {
            out = AStreamPolicyKind(i);
            return true;
        }
    }
    return false;
}

AStreamPolicyKind
aStreamPolicyFromEnv(AStreamPolicyKind fallback)
{
    return AStreamPolicyKind(envChoice("SLIPSTREAM_ASTREAM_POLICY",
                                       {"ir", "reliability"},
                                       size_t(fallback)));
}

AStreamPolicy::AStreamPolicy(const AStreamPolicyParams &params)
    : kind_(params.kind), stats_("a_policy")
{
}

std::optional<RemovalPlan>
AStreamPolicy::planTrace(const IRPredictor &irPredictor,
                         const PathHistory &history,
                         const TraceId &predicted)
{
    if (cooldownLeft > 0) {
        --cooldownLeft;
        ++statCooldownTraces;
        return std::nullopt;
    }
    return irPredictor.lookup(history, predicted);
}

void
AStreamPolicy::onPacketComplete(Packet &packet)
{
    if (kind_ == AStreamPolicyKind::Reliability) {
        for (PacketSlot &slot : packet.slots) {
            if (slot.executedInA) {
                slot.executedInA = false;
                slot.aExec = ExecResult{};
                ++statStrippedSlots;
            }
        }
        packet.executedCount = 0;
    }
    if (packet.executedCount > 0)
        ++statDataPackets;
    else
        ++statControlOnlyPackets;
}

void
AStreamPolicy::onRecovery()
{
    if (kind_ != AStreamPolicyKind::Reliability)
        return;
    if (cooldownLeft == 0)
        ++statCooldowns;
    cooldownLeft = kCooldownTraces;
}

} // namespace slip
