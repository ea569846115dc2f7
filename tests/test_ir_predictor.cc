#include <gtest/gtest.h>

#include <optional>
#include <type_traits>
#include <vector>

#include "common/random.hh"
#include "slipstream/ir_predictor.hh"

namespace slip
{
namespace
{

TraceId
traceAt(Addr pc)
{
    return TraceId{pc, 0b1, 1, 8};
}

RemovalPlan
plan(uint64_t irVec)
{
    RemovalPlan p;
    p.irVec = irVec;
    p.reasons.assign(8, reason::kBR);
    return p;
}

IRPredictorParams
lowThreshold(unsigned threshold = 3)
{
    IRPredictorParams p;
    p.confidenceThreshold = threshold;
    return p;
}

TEST(IRPredictor, NoRemovalBelowThreshold)
{
    IRPredictor pred(lowThreshold(3));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    pred.update(h, t, plan(0b0110));
    pred.update(h, t, plan(0b0110));
    pred.update(h, t, plan(0b0110));
    EXPECT_FALSE(pred.lookup(h, t).has_value());
    pred.update(h, t, plan(0b0110));
    auto got = pred.lookup(h, t);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->irVec, 0b0110u);
}

TEST(IRPredictor, ResettingCounterOnIrVecChange)
{
    IRPredictor pred(lowThreshold(2));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    for (int i = 0; i < 5; ++i)
        pred.update(h, t, plan(0b1));
    ASSERT_TRUE(pred.lookup(h, t).has_value());
    pred.update(h, t, plan(0b10)); // different ir-vec: reset
    EXPECT_FALSE(pred.lookup(h, t).has_value());
}

TEST(IRPredictor, UnstableNextTraceNeverConfident)
{
    // The same path history is followed alternately by two different
    // traces: the {trace-id, ir-vec} pair keeps changing, so the
    // entry never saturates — the paper's §2.1.3 instability effect.
    IRPredictor pred(lowThreshold(3));
    PathHistory h;
    const TraceId a = traceAt(0x1000);
    const TraceId b = traceAt(0x2000);
    for (int i = 0; i < 50; ++i) {
        pred.update(h, a, plan(0b1));
        pred.update(h, b, plan(0b1));
    }
    EXPECT_FALSE(pred.lookup(h, a).has_value());
    EXPECT_FALSE(pred.lookup(h, b).has_value());
}

TEST(IRPredictor, LookupRequiresMatchingTraceId)
{
    IRPredictor pred(lowThreshold(1));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    pred.update(h, t, plan(0b1));
    pred.update(h, t, plan(0b1));
    ASSERT_TRUE(pred.lookup(h, t).has_value());
    // Same history, different predicted trace: no plan.
    EXPECT_FALSE(pred.lookup(h, traceAt(0x2000)).has_value());
}

TEST(IRPredictor, EmptyIrVecYieldsNoPlan)
{
    IRPredictor pred(lowThreshold(1));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    for (int i = 0; i < 5; ++i)
        pred.update(h, t, plan(0));
    EXPECT_FALSE(pred.lookup(h, t).has_value());
}

TEST(IRPredictor, DisabledPredictorRemovesNothing)
{
    IRPredictorParams params = lowThreshold(1);
    params.enabled = false; // reliable (AR-SMT) mode
    IRPredictor pred(params);
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    for (int i = 0; i < 5; ++i)
        pred.update(h, t, plan(0b1));
    EXPECT_FALSE(pred.lookup(h, t).has_value());
}

TEST(IRPredictor, ResetDropsAllConfidence)
{
    IRPredictor pred(lowThreshold(1));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    pred.update(h, t, plan(0b1));
    pred.update(h, t, plan(0b1));
    ASSERT_TRUE(pred.lookup(h, t).has_value());
    pred.reset();
    EXPECT_FALSE(pred.lookup(h, t).has_value());
}

TEST(IRPredictor, ResetEntryIsTargeted)
{
    IRPredictor pred(lowThreshold(1));
    PathHistory h1, h2;
    h2.push(traceAt(0x9000));
    const TraceId t1 = traceAt(0x1000);
    const TraceId t2 = traceAt(0x2000);
    for (int i = 0; i < 3; ++i) {
        pred.update(h1, t1, plan(0b1));
        pred.update(h2, t2, plan(0b10));
    }
    ASSERT_TRUE(pred.lookup(h1, t1).has_value());
    ASSERT_TRUE(pred.lookup(h2, t2).has_value());
    pred.resetEntry(h1, t1);
    EXPECT_FALSE(pred.lookup(h1, t1).has_value());
    EXPECT_TRUE(pred.lookup(h2, t2).has_value());
}

TEST(IRPredictor, ReasonsRideAlong)
{
    IRPredictor pred(lowThreshold(1));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    RemovalPlan p = plan(0b100);
    p.reasons.assign(8, 0);
    p.reasons.set(2, reason::kSV);
    pred.update(h, t, p);
    pred.update(h, t, p);
    auto got = pred.lookup(h, t);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->reasonAt(2), reason::kSV);
    EXPECT_TRUE(got->removes(2));
    EXPECT_FALSE(got->removes(1));
    EXPECT_EQ(got->removedCount(), 1u);
}

// A plan copies as plain bytes: no heap vector rides in an entry.
static_assert(sizeof(RemovalPlan) == 40 &&
              std::is_trivially_copyable_v<RemovalPlan>);

TEST(SlotReasons, FourBitsPerSlotAcrossAllSixtyFour)
{
    SlotReasons r;
    for (unsigned slot = 0; slot < kMaxPlanSlots; ++slot)
        r.set(slot, static_cast<uint8_t>(slot % 16));
    for (unsigned slot = 0; slot < kMaxPlanSlots; ++slot)
        EXPECT_EQ(r[slot], slot % 16) << slot;
    r.set(17, reason::kBR);
    EXPECT_EQ(r[16], 0u);
    EXPECT_EQ(r[17], reason::kBR);
    EXPECT_EQ(r[18], 2u);
    r.assign(3, reason::kSV);
    EXPECT_EQ(r[2], reason::kSV);
    EXPECT_EQ(r[3], 0u);
    EXPECT_EQ(r[63], 0u);
}

/**
 * Reference model: the predictor with its table a dense vector of
 * entries carrying their own valid flag, zero-filled when built, and
 * reset() and corruptEntry() touching entries that were never
 * written, as they once did. The lazily initialised table must
 * reproduce every result.
 */
class DenseIRPredictor
{
  public:
    explicit DenseIRPredictor(const IRPredictorParams &params)
        : params(params), table(size_t(1) << params.tableBits)
    {}

    std::optional<RemovalPlan>
    lookup(const PathHistory &history, const TraceId &predicted) const
    {
        if (!params.enabled)
            return std::nullopt;
        const Entry &e = table[indexOf(history, predicted)];
        if (!e.valid || e.idHash != predicted.hash() ||
            e.confidence < params.confidenceThreshold ||
            e.plan.irVec == 0)
            return std::nullopt;
        return e.plan;
    }

    void
    update(const PathHistory &history, const TraceId &actual,
           const RemovalPlan &computed)
    {
        Entry &e = table[indexOf(history, actual)];
        if (e.valid && e.idHash == actual.hash() &&
            e.plan.irVec == computed.irVec) {
            if (e.confidence < 1'000'000)
                ++e.confidence;
            e.plan.reasons = computed.reasons;
            return;
        }
        e = Entry{true, actual.hash(), computed, 0};
    }

    void
    reset()
    {
        for (Entry &e : table)
            e.confidence = 0;
    }

    void
    resetEntry(const PathHistory &history, const TraceId &trace)
    {
        Entry &e = table[indexOf(history, trace)];
        if (e.valid && e.idHash == trace.hash())
            e.confidence = 0;
    }

    bool
    corruptEntry(const PathHistory &history, const TraceId &trace,
                 unsigned bit)
    {
        if (!params.enabled)
            return false;
        Entry &e = table[indexOf(history, trace)];
        if (bit < 8)
            e.confidence ^= 1u << bit;
        else
            e.plan.irVec ^= uint64_t(1) << ((bit - 8) & 63);
        return e.valid;
    }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t idHash = 0;
        RemovalPlan plan;
        unsigned confidence = 0;
    };

    size_t
    indexOf(const PathHistory &history, const TraceId &id) const
    {
        const uint64_t h =
            params.keyByTraceId ? id.hash() : history.correlatedHash();
        return h & ((size_t(1) << params.tableBits) - 1);
    }

    IRPredictorParams params;
    std::vector<Entry> table;
};

void
expectSamePlan(const std::optional<RemovalPlan> &got,
               const std::optional<RemovalPlan> &want)
{
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) {
        EXPECT_EQ(got->irVec, want->irVec);
        EXPECT_TRUE(got->reasons == want->reasons);
    }
}

/**
 * One seeded stream of lookups, updates, resets, targeted resets and
 * SRAM upsets over a small trace vocabulary and a few ir-vecs, so
 * entries build confidence, reset, get replaced and get corrupted,
 * and fresh paths keep probing entries that were never written.
 */
void
runAgainstDense(const IRPredictorParams &params, uint64_t seed,
                unsigned steps)
{
    Rng rng(seed);
    IRPredictor pred(params);
    DenseIRPredictor ref(params);
    std::vector<TraceId> vocab;
    for (unsigned i = 0; i < 16; ++i) {
        vocab.push_back(TraceId{0x1000 + 0x40 * rng.below(32),
                                rng.below(2), 1,
                                static_cast<uint8_t>(1 + rng.below(64))});
    }
    PathHistory h;
    for (unsigned step = 0; step < steps; ++step) {
        const TraceId &t = vocab[rng.below(vocab.size())];
        const uint64_t op = rng.below(100);
        if (op < 40) {
            expectSamePlan(pred.lookup(h, t), ref.lookup(h, t));
        } else if (op < 85) {
            RemovalPlan plan;
            plan.irVec = rng.below(4);
            for (unsigned slot = 0; slot < t.length; ++slot)
                plan.reasons.set(slot, static_cast<uint8_t>(rng.below(16)));
            pred.update(h, t, plan);
            ref.update(h, t, plan);
        } else if (op < 92) {
            pred.resetEntry(h, t);
            ref.resetEntry(h, t);
        } else if (op < 99) {
            const unsigned bit = static_cast<unsigned>(rng.below(72));
            ASSERT_EQ(pred.corruptEntry(h, t, bit),
                      ref.corruptEntry(h, t, bit));
        } else {
            pred.reset();
            ref.reset();
        }
        if (rng.chance(0.3))
            h.push(vocab[rng.below(vocab.size())]);
        if (rng.chance(0.01))
            h.clear();
        if (testing::Test::HasFailure())
            FAIL() << "seed " << seed << " diverged at step " << step;
    }
}

TEST(IRPredictor, LazyTableMatchesDenseReference)
{
    // Each predictor is built where the last one was freed, so its
    // storage starts out holding the previous predictor's entries.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        for (bool keyByTraceId : {false, true}) {
            IRPredictorParams params;
            params.tableBits = 6;
            params.confidenceThreshold = 2;
            params.keyByTraceId = keyByTraceId;
            runAgainstDense(params, seed, 40000);
            params.tableBits = IRPredictorParams{}.tableBits;
            runAgainstDense(params, seed, 4000);
        }
        if (HasFailure())
            break;
    }
}

TEST(IRPredictor, CorruptingAnUnwrittenEntryHitsNothing)
{
    IRPredictor pred(lowThreshold(1));
    PathHistory h;
    const TraceId t = traceAt(0x1000);
    EXPECT_FALSE(pred.corruptEntry(h, t, 3));
    EXPECT_FALSE(pred.corruptEntry(h, t, 9));
    // The entry is written in full on its first update: the upsets
    // above left nothing behind.
    pred.update(h, t, plan(0b1));
    pred.update(h, t, plan(0b1));
    const auto got = pred.lookup(h, t);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->irVec, 0b1u);
    EXPECT_TRUE(pred.corruptEntry(h, t, 9));
    EXPECT_EQ(pred.lookup(h, t)->irVec, 0b11u);
}

TEST(ReasonName, PaperCategories)
{
    EXPECT_EQ(reasonName(reason::kBR), "BR");
    EXPECT_EQ(reasonName(reason::kWW), "WW");
    EXPECT_EQ(reasonName(reason::kSV), "SV");
    EXPECT_EQ(reasonName(reason::kProp | reason::kBR), "P:BR");
    EXPECT_EQ(reasonName(uint8_t(reason::kProp | reason::kSV |
                                 reason::kWW | reason::kBR)),
              "P:SV,WW,BR");
    EXPECT_EQ(reasonName(0), "none");
}

} // namespace
} // namespace slip
