#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "assembler/assembler.hh"
#include "common/stats.hh"
#include "slipstream/slipstream_processor.hh"
#include "workloads/workloads.hh"

namespace slip
{
namespace
{

TEST(Stats, CounterStartsAtZeroAndIncrements)
{
    StatGroup g("g");
    EXPECT_EQ(g.get("c"), 0u);
    ++g.counter("c");
    g.counter("c") += 4;
    EXPECT_EQ(g.get("c"), 5u);
}

TEST(Stats, MissingCounterReadsZero)
{
    StatGroup g("g");
    EXPECT_EQ(g.get("never_created"), 0u);
    EXPECT_FALSE(g.hasCounter("never_created"));
}

TEST(Stats, DistributionTracksMoments)
{
    StatGroup g("g");
    auto &d = g.distribution("lat");
    d.sample(10);
    d.sample(20);
    d.sample(30);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.min(), 10u);
    EXPECT_EQ(d.max(), 30u);
    EXPECT_DOUBLE_EQ(d.mean(), 20.0);
}

TEST(Stats, EmptyDistribution)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.min(), 0u);
    EXPECT_EQ(d.max(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
}

TEST(Stats, ResetZeroesEverything)
{
    StatGroup g("g");
    g.counter("c") += 7;
    g.distribution("d").sample(3);
    g.reset();
    EXPECT_EQ(g.get("c"), 0u);
    EXPECT_EQ(g.getDistribution("d").count(), 0u);
}

TEST(Stats, DumpIsPrefixedAndSorted)
{
    StatGroup g("core");
    g.counter("b") += 2;
    g.counter("a") += 1;
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("core.a 1"), std::string::npos);
    EXPECT_NE(out.find("core.b 2"), std::string::npos);
    EXPECT_LT(out.find("core.a"), out.find("core.b"));
}

TEST(Stats, GetMissingDistributionPanics)
{
    StatGroup g("g");
    EXPECT_THROW(g.getDistribution("nope"), PanicError);
}

TEST(Stats, HandleIncrementsTheNamedCounter)
{
    StatGroup g("g");
    StatGroup::Handle h = g.handle("events");
    ASSERT_TRUE(h.bound());
    ++h;
    h += 9;
    EXPECT_EQ(g.get("events"), 10u);
    EXPECT_EQ(h.value(), 10u);
}

TEST(Stats, HandleSurvivesLaterCounterCreation)
{
    // The registry is node-based, so a handle must stay valid while
    // other counters are created around it.
    StatGroup g("g");
    StatGroup::Handle h = g.handle("m");
    for (int i = 0; i < 100; ++i)
        g.counter("other_" + std::to_string(i));
    ++h;
    EXPECT_EQ(g.get("m"), 1u);
}

TEST(Stats, UnboundHandleReadsZero)
{
    StatGroup::Handle h;
    EXPECT_FALSE(h.bound());
    EXPECT_EQ(h.value(), 0u);
}

TEST(Stats, LinkedCounterIsVisibleThroughTheGroup)
{
    StatGroup g("core");
    uint64_t hot = 0;
    g.link("retired", hot);
    hot += 42;
    EXPECT_TRUE(g.hasCounter("retired"));
    EXPECT_EQ(g.get("retired"), 42u);

    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("core.retired 42"), std::string::npos);

    g.reset();
    EXPECT_EQ(hot, 0u);
    EXPECT_EQ(g.get("retired"), 0u);
}

TEST(Stats, LinkedCountersSortWithOwnedOnesInDump)
{
    StatGroup g("core");
    uint64_t a = 1;
    g.counter("b") += 2;
    g.link("a", a);
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_LT(out.find("core.a 1"), out.find("core.b 2"));
}

TEST(RemovalAccounting, NamesExpandFromMaskTallies)
{
    ReasonCounts c{};
    c[reason::kBR] = 5;
    c[reason::kSV | reason::kBR] = 2;
    c[reason::kProp | reason::kSV] = 3;
    const std::map<std::string, uint64_t> named = reasonCountsByName(c);
    ASSERT_EQ(named.size(), 3u);
    EXPECT_EQ(named.at("BR"), 5u);
    EXPECT_EQ(named.at("SV,BR"), 2u);
    EXPECT_EQ(named.at("P:SV"), 3u);
}

TEST(RemovalAccounting, SlipstreamRunTalliesAreConsistent)
{
    // The mask-indexed accounting (hot path) and the name-keyed map
    // (result view) must describe the same removals.
    const Workload w = getWorkload("m88ksim", WorkloadSize::Test);
    const Program program = assemble(w.source);
    SlipstreamProcessor proc(program, SlipstreamParams{});
    const SlipstreamRunResult r = proc.run();

    ASSERT_TRUE(r.halted);
    EXPECT_GT(r.removedSlots, 0u);

    const uint64_t maskTotal =
        std::accumulate(r.removedByReasonMask.begin(),
                        r.removedByReasonMask.end(), uint64_t(0));
    EXPECT_EQ(maskTotal, r.removedSlots);

    EXPECT_EQ(r.removedByReason,
              reasonCountsByName(r.removedByReasonMask));
    uint64_t nameTotal = 0;
    for (const auto &[name, count] : r.removedByReason)
        nameTotal += count;
    EXPECT_EQ(nameTotal, r.removedSlots);
}

TEST(Histogram, Log2Bucketing)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(~uint64_t(0)), 64u);
    // Bucket bounds tile the value space with no gaps.
    for (unsigned b = 0; b + 1 < Histogram::kBuckets; ++b)
        EXPECT_EQ(Histogram::bucketHi(b) + 1, Histogram::bucketLo(b + 1));
}

TEST(Histogram, SampleTracksMomentsAndBuckets)
{
    Histogram h;
    h.sample(0);
    h.sample(5);
    h.sample(5);
    h.sample(100);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_EQ(h.sum(), 110u);
    EXPECT_EQ(h.bucket(0), 1u);                       // the zero
    EXPECT_EQ(h.bucket(Histogram::bucketOf(5)), 2u);  // the fives
    EXPECT_EQ(h.bucket(Histogram::bucketOf(100)), 1u);
}

TEST(Histogram, AddToBucketReconstructs)
{
    // A journal round-trip: only bucket counts survive; counts (the
    // report's payload) must match exactly.
    Histogram live;
    live.sample(5);
    live.sample(6);
    live.sample(300);

    Histogram rebuilt;
    for (unsigned b = 0; b < Histogram::kBuckets; ++b)
        if (live.bucket(b))
            rebuilt.addToBucket(b, live.bucket(b));
    EXPECT_EQ(rebuilt.count(), live.count());
    for (unsigned b = 0; b < Histogram::kBuckets; ++b)
        EXPECT_EQ(rebuilt.bucket(b), live.bucket(b)) << "bucket " << b;
}

TEST(Histogram, MergeAddsCountsAndWidensRange)
{
    Histogram a, b;
    a.sample(4);
    b.sample(1000);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 4u);
    EXPECT_EQ(a.max(), 1000u);
    EXPECT_EQ(a.bucket(Histogram::bucketOf(1000)), 1u);
}

} // namespace
} // namespace slip
