#include "detect/detect_params.hh"

#include "common/env.hh"

namespace slip
{

namespace
{

constexpr const char *kBackendNames[kNumDetectBackends] = {
    "slipstream",
    "replay",
    "checker",
};

} // namespace

const char *
detectBackendName(DetectBackendKind kind)
{
    const auto i = unsigned(kind);
    return i < kNumDetectBackends ? kBackendNames[i] : "?";
}

bool
parseDetectBackend(const std::string &text, DetectBackendKind &out)
{
    for (unsigned i = 0; i < kNumDetectBackends; ++i) {
        if (text == kBackendNames[i]) {
            out = DetectBackendKind(i);
            return true;
        }
    }
    return false;
}

DetectBackendKind
detectBackendFromEnv(DetectBackendKind fallback)
{
    return DetectBackendKind(envChoice(
        "SLIPSTREAM_DETECT", {"slipstream", "replay", "checker"},
        size_t(fallback)));
}

} // namespace slip
