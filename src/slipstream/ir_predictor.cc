#include "slipstream/ir_predictor.hh"

#include "common/invariant.hh"
#include "common/logging.hh"
#include "obs/trace_session.hh"

namespace slip
{

namespace
{

/** Saturation cap for the resetting confidence counter. */
constexpr unsigned kConfidenceCap = 1'000'000;

} // namespace

std::string
reasonName(uint8_t mask)
{
    std::string name;
    if (mask & reason::kProp)
        name += "P:";
    bool first = true;
    const auto add = [&](uint8_t bit, const char *label) {
        if (mask & bit) {
            if (!first)
                name += ",";
            name += label;
            first = false;
        }
    };
    add(reason::kSV, "SV");
    add(reason::kWW, "WW");
    add(reason::kBR, "BR");
    return name.empty() ? "none" : name;
}

std::map<std::string, uint64_t>
reasonCountsByName(const ReasonCounts &c)
{
    std::map<std::string, uint64_t> out;
    for (unsigned mask = 0; mask < kNumReasonMasks; ++mask) {
        if (c[mask])
            out[reasonName(static_cast<uint8_t>(mask))] += c[mask];
    }
    return out;
}

IRPredictor::IRPredictor(const IRPredictorParams &params)
    : params_(params), table(params.tableBits),
      stats_("ir_pred")
{
}

size_t
IRPredictor::indexOf(const PathHistory &history, const TraceId &id) const
{
    const uint64_t h = params_.keyByTraceId ? id.hash()
                                            : history.correlatedHash();
    return h & ((size_t(1) << params_.tableBits) - 1);
}

std::optional<RemovalPlan>
IRPredictor::lookup(const PathHistory &history,
                    const TraceId &predicted) const
{
    if (!params_.enabled)
        return std::nullopt;
    const Entry *e = table.find(indexOf(history, predicted));
    if (!e || e->idHash != predicted.hash())
        return std::nullopt;
    if (e->confidence < params_.confidenceThreshold) {
        ++statLookupBelowThreshold;
        SLIP_TRACE(obs::Category::IRPredictor,
                   obs::Name::IRLookupBelowThreshold,
                   obs::Phase::Instant, e->confidence,
                   predicted.startPc);
        return std::nullopt;
    }
    if (e->plan.irVec == 0)
        return std::nullopt;
    SLIP_INVARIANT(e->confidence <= kConfidenceCap,
                   "confidence counter ", e->confidence,
                   " above saturation cap for trace ",
                   predicted.startPc);
    ++statLookupConfident;
    SLIP_TRACE(obs::Category::IRPredictor, obs::Name::IRLookupConfident,
               obs::Phase::Instant, e->plan.irVec, predicted.startPc);
    return e->plan;
}

void
IRPredictor::update(const PathHistory &history, const TraceId &actual,
                    const RemovalPlan &computed)
{
    ++statUpdates;
    const size_t index = indexOf(history, actual);
    const uint64_t idHash = actual.hash();

    Entry *e = table.find(index);
    if (e && e->idHash == idHash && e->plan.irVec == computed.irVec) {
        // Repeated {trace-id, ir-vec} indication: build confidence.
        if (e->confidence < kConfidenceCap)
            ++e->confidence;
        e->plan.reasons = computed.reasons; // keep freshest attribution
        SLIP_INVARIANT(e->confidence >= 1 &&
                           e->confidence <= kConfidenceCap,
                       "confidence counter ", e->confidence,
                       " out of [1, cap] after build for trace ",
                       actual.startPc);
        ++statConfidenceHits;
        return;
    }

    // A different trace followed this path, or the same trace with a
    // different ir-vec: the resetting counter starts over.
    table.set(index, Entry{idHash, computed, 0});
    ++statConfidenceResets;
    SLIP_TRACE(obs::Category::IRPredictor, obs::Name::IRConfidenceReset,
               obs::Phase::Instant, actual.startPc, computed.irVec);
}

void
IRPredictor::resetEntry(const PathHistory &history, const TraceId &trace)
{
    Entry *e = table.find(indexOf(history, trace));
    if (e && e->idHash == trace.hash())
        e->confidence = 0;
}

void
IRPredictor::reset()
{
    table.forEachValid([](Entry &e) { e.confidence = 0; });
}

bool
IRPredictor::corruptEntry(const PathHistory &history,
                          const TraceId &trace, unsigned bit)
{
    if (!params_.enabled)
        return false;
    Entry *e = table.find(indexOf(history, trace));
    if (!e)
        return false;
    if (bit < 8) {
        // Confidence-counter bit: can push a building entry over the
        // threshold (premature removal) or knock a confident one
        // under it (lost removal — performance, not correctness).
        e->confidence ^= 1u << bit;
    } else {
        // Stored ir-vec bit: removes an instruction that is not
        // ineffectual, or keeps one that is. A wrong removal corrupts
        // only the A-stream; the detector/R-stream checks expose it.
        e->plan.irVec ^= uint64_t(1) << ((bit - 8) & 63);
    }
    return true;
}

} // namespace slip
