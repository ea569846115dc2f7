#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/random.hh"
#include "uarch/trace_pred.hh"

namespace slip
{
namespace
{

TraceId
traceAt(Addr pc, uint8_t len = 8)
{
    return TraceId{pc, 0, 0, len};
}

TEST(PathHistory, PushChangesBothHashes)
{
    PathHistory h;
    const uint64_t emptyCorrelated = h.correlatedHash();
    const uint64_t emptySimple = h.simpleHash();
    h.push(traceAt(0x1000));
    EXPECT_NE(h.correlatedHash(), emptyCorrelated);
    EXPECT_NE(h.simpleHash(), emptySimple);

    // The simple hash sees only the newest trace; the correlated one
    // the whole path.
    PathHistory h2;
    h2.push(traceAt(0x2000));
    h2.push(traceAt(0x1000));
    EXPECT_EQ(h2.simpleHash(), h.simpleHash());
    EXPECT_NE(h2.correlatedHash(), h.correlatedHash());
}

TEST(TracePredictor, ColdPredictorReturnsNothing)
{
    TracePredictor pred;
    PathHistory h;
    EXPECT_FALSE(pred.predict(h).has_value());
}

TEST(TracePredictor, LearnsASequence)
{
    TracePredictor pred;
    const TraceId a = traceAt(0x1000);
    const TraceId b = traceAt(0x2000);

    PathHistory h;
    // Teach: after [.. a] comes b; after [.. b] comes a.
    for (int i = 0; i < 4; ++i) {
        pred.update(h, a);
        h.push(a);
        pred.update(h, b);
        h.push(b);
    }
    auto got = pred.predict(h); // history ends with b
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, a);
    h.push(a);
    got = pred.predict(h);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, b);
}

TEST(TracePredictor, CorrelatedBeatsSimpleOnContext)
{
    // Sequence: a x a y a x a y ... — the trace after `a` depends on
    // deeper history, which only the correlated table can capture.
    TracePredictor pred;
    const TraceId a = traceAt(0xa000);
    const TraceId x = traceAt(0xb000);
    const TraceId y = traceAt(0xc000);

    PathHistory h;
    const TraceId pattern[] = {a, x, a, y};
    for (int round = 0; round < 64; ++round) {
        for (const TraceId &next : pattern) {
            pred.update(h, next);
            h.push(next);
        }
    }
    // After ... y a the next is x; after ... x a the next is y.
    int correct = 0, total = 0;
    for (const TraceId &next : pattern) {
        auto got = pred.predict(h);
        correct += got && *got == next;
        ++total;
        pred.update(h, next);
        h.push(next);
    }
    EXPECT_EQ(correct, total);
}

TEST(TracePredictor, CounterDecaysBeforeReplacement)
{
    TracePredictor pred;
    PathHistory h;
    const TraceId a = traceAt(0x1000);
    const TraceId b = traceAt(0x2000);

    // Build confidence in `a` for the empty history.
    for (int i = 0; i < 4; ++i)
        pred.update(h, a);
    // One conflicting update must not displace it.
    pred.update(h, b);
    auto got = pred.predict(h);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, a);
    // Enough conflicts eventually displace.
    for (int i = 0; i < 8; ++i)
        pred.update(h, b);
    got = pred.predict(h);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, b);
}

TEST(TracePredictor, StatsCountPredictions)
{
    TracePredictor pred;
    PathHistory h;
    pred.predict(h);
    EXPECT_EQ(pred.stats().get("predict_none"), 1u);
    pred.update(h, traceAt(0x1000));
    pred.predict(h);
    EXPECT_GE(pred.stats().get("predict_simple") +
                  pred.stats().get("predict_correlated") +
                  pred.stats().get("predict_correlated_weak"),
              1u);
}

/**
 * Reference model: the predictor with each table a dense vector of
 * entries carrying their own valid flag, zero-filled when built. The
 * lazily initialised tables must reproduce it exactly.
 */
class DenseTracePredictor
{
  public:
    explicit DenseTracePredictor(const TracePredParams &params)
        : params(params), correlated(size_t(1) << params.correlatedBits),
          simple(size_t(1) << params.simpleBits)
    {}

    std::optional<TraceId>
    predict(const PathHistory &history) const
    {
        const Entry &corr = correlated[correlatedIndex(history)];
        const Entry &simp = simple[simpleIndex(history)];
        if (corr.valid && corr.counter > 0)
            return corr.pred;
        if (simp.valid)
            return simp.pred;
        if (corr.valid)
            return corr.pred;
        return std::nullopt;
    }

    void
    update(const PathHistory &history, const TraceId &actual)
    {
        train(correlated[correlatedIndex(history)], actual);
        train(simple[simpleIndex(history)], actual);
    }

  private:
    struct Entry
    {
        bool valid = false;
        TraceId pred;
        uint8_t counter = 0;
    };

    static void
    train(Entry &entry, const TraceId &actual)
    {
        if (entry.valid && entry.pred == actual) {
            if (entry.counter < 3)
                ++entry.counter;
            return;
        }
        if (entry.valid && entry.counter > 0) {
            --entry.counter;
            return;
        }
        entry = Entry{true, actual, 0};
    }

    size_t
    correlatedIndex(const PathHistory &history) const
    {
        return history.correlatedHash() &
               ((size_t(1) << params.correlatedBits) - 1);
    }

    size_t
    simpleIndex(const PathHistory &history) const
    {
        return history.simpleHash() & ((size_t(1) << params.simpleBits) - 1);
    }

    TracePredParams params;
    std::vector<Entry> correlated;
    std::vector<Entry> simple;
};

/**
 * One seeded stream of predictions and updates over a small trace
 * vocabulary walked as a noisy cycle, so entries gain confidence,
 * decay and get replaced, and fresh paths keep probing entries that
 * were never written.
 */
void
runAgainstDense(const TracePredParams &params, uint64_t seed,
                unsigned steps)
{
    Rng rng(seed);
    TracePredictor pred(params);
    DenseTracePredictor ref(params);
    std::vector<TraceId> vocab;
    for (unsigned i = 0; i < 24; ++i) {
        vocab.push_back(TraceId{0x1000 + 0x40 * rng.below(64),
                                rng.below(4),
                                static_cast<uint8_t>(rng.below(3)),
                                static_cast<uint8_t>(1 + rng.below(32))});
    }
    PathHistory h;
    size_t at = 0;
    for (unsigned step = 0; step < steps; ++step) {
        ASSERT_EQ(pred.predict(h), ref.predict(h))
            << "seed " << seed << " step " << step;
        at = rng.chance(0.8) ? (at + 1) % vocab.size()
                             : rng.below(vocab.size());
        pred.update(h, vocab[at]);
        ref.update(h, vocab[at]);
        if (rng.chance(0.01))
            h.clear();
        else
            h.push(vocab[at]);
    }
}

TEST(TracePredictor, LazyTablesMatchDenseReference)
{
    // Each predictor is built where the last one was freed, so its
    // storage starts out holding the previous predictor's entries.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        runAgainstDense(TracePredParams{6, 4}, seed, 20000);
        runAgainstDense(TracePredParams{}, seed, 4000);
        if (HasFailure())
            break;
    }
}

} // namespace
} // namespace slip
