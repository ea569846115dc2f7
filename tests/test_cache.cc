#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "mem/cache.hh"

namespace slip
{
namespace
{

CacheParams
tiny()
{
    // 4 sets x 2 ways x 64B lines = 512B.
    CacheParams p;
    p.name = "tiny";
    p.sizeBytes = 512;
    p.assoc = 2;
    p.lineBytes = 64;
    p.hitLatency = 1;
    p.missPenalty = 10;
    return p;
}

// Test-size workloads never evict from the 64 KB caches, so the
// whole-machine restore tests cannot see replacement state: a cache
// restored mid-stream must pick the same victims as the original.
TEST(Cache, RestoredCacheEvictsAsTheOriginal)
{
    Rng rng(11);
    std::vector<Addr> stream;
    for (int i = 0; i < 4000; ++i)
        stream.push_back(rng.below(64) * 64); // 64 lines into 8 slots
    Cache original(tiny());
    for (int i = 0; i < 2000; ++i)
        original.access(stream[i]);

    ckpt::Writer out(0);
    out(original);
    const std::string bytes = out.take();
    Cache restored(tiny());
    ckpt::Reader in(bytes);
    in(restored);
    ASSERT_TRUE(in.atEnd());

    for (int i = 2000; i < 4000; ++i)
        ASSERT_EQ(restored.access(stream[i]), original.access(stream[i]))
            << "access " << i;
    std::ostringstream a, b;
    original.stats().dump(a);
    restored.stats().dump(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(tiny());
    EXPECT_EQ(c.access(0x0), 11u); // miss
    EXPECT_EQ(c.access(0x0), 1u);  // hit
    EXPECT_EQ(c.access(0x3f), 1u); // same line
    EXPECT_EQ(c.access(0x40), 11u); // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, AssociativityHoldsConflictingLines)
{
    Cache c(tiny());
    // Two addresses mapping to set 0: line stride = 64 * 4 sets = 256.
    c.access(0);
    c.access(256);
    EXPECT_EQ(c.access(0), 1u);
    EXPECT_EQ(c.access(256), 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tiny());
    c.access(0);    // set 0, way A
    c.access(256);  // set 0, way B
    c.access(0);    // touch A: B is now LRU
    c.access(512);  // evicts B
    EXPECT_EQ(c.access(0), 1u);    // A still resident
    EXPECT_EQ(c.access(512), 1u);  // new line resident
    EXPECT_EQ(c.access(256), 11u); // B was evicted
}

TEST(Cache, ContainsDoesNotPerturbState)
{
    Cache c(tiny());
    c.access(0);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(32)); // same line
    EXPECT_FALSE(c.contains(64));
    EXPECT_EQ(c.hits() + c.misses(), 1u); // contains not counted
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c(tiny());
    c.access(0);
    c.flush();
    EXPECT_FALSE(c.contains(0));
    EXPECT_EQ(c.access(0), 11u);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    Cache c(tiny());
    for (Addr a = 0; a < 4 * 64; a += 64)
        c.access(a);
    for (Addr a = 0; a < 4 * 64; a += 64)
        EXPECT_EQ(c.access(a), 1u) << "addr " << a;
}

TEST(Cache, PaperGeometryIsLegal)
{
    // Table 2: 64kB 4-way I-cache and D-cache.
    CacheParams icache{"i", 64 * 1024, 4, 64, 1, 12};
    CacheParams dcache{"d", 64 * 1024, 4, 64, 2, 14};
    EXPECT_NO_THROW(Cache a(icache));
    EXPECT_NO_THROW(Cache b(dcache));
}

TEST(Cache, BadGeometryIsFatal)
{
    CacheParams p = tiny();
    p.lineBytes = 48; // not a power of two
    EXPECT_THROW(Cache c(p), FatalError);

    CacheParams q = tiny();
    q.assoc = 0;
    EXPECT_THROW(Cache c(q), FatalError);

    CacheParams r = tiny();
    r.sizeBytes = 384; // 6 lines, assoc 2 -> 3 sets (not pow2)
    EXPECT_THROW(Cache c(r), FatalError);
}

} // namespace
} // namespace slip
