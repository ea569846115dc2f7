#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "slipstream/recovery_controller.hh"

namespace slip
{
namespace
{

class RecoveryTest : public ::testing::Test
{
  protected:
    RecoveryTest()
        : rc(rMem)
    {
    }

    Memory rMem;
    RecoveryController rc;
};

TEST_F(RecoveryTest, AStreamReadsSeeOverlayOverBase)
{
    rMem.write(0x100, 8, 111);
    EXPECT_EQ(rc.read(0x100, 8), 111u); // falls through to R memory
    rc.write(0x100, 8, 222);            // A-stream store
    EXPECT_EQ(rc.read(0x100, 8), 222u); // A sees its own store
    EXPECT_EQ(rMem.read(0x100, 8), 111u); // R memory untouched
}

TEST_F(RecoveryTest, PartialOverlayComposition)
{
    rMem.write(0x200, 8, 0x1111111111111111ull);
    rc.write(0x202, 2, 0xaabb); // A stores 2 bytes in the middle
    EXPECT_EQ(rc.read(0x200, 8), 0x11111111aabb1111ull);
}

TEST_F(RecoveryTest, UndoWindowClosesWhenRStoreRetires)
{
    rc.write(0x300, 8, 42);
    EXPECT_EQ(rc.trackedAddresses(), 1u);
    // The companion R-stream store retires with the same data.
    rMem.write(0x300, 8, 42);
    rc.onRStoreRetired(0x300, 8);
    EXPECT_EQ(rc.trackedAddresses(), 0u);
    EXPECT_EQ(rc.read(0x300, 8), 42u); // still reads correctly
}

TEST_F(RecoveryTest, PendingYoungerStoreKeepsTracking)
{
    rc.write(0x300, 8, 1); // older A store
    rc.write(0x300, 8, 2); // younger A store, still in flight
    rMem.write(0x300, 8, 1);
    rc.onRStoreRetired(0x300, 8); // matches the older store only
    // The younger store is outstanding: overlay must persist.
    EXPECT_EQ(rc.trackedAddresses(), 1u);
    EXPECT_EQ(rc.read(0x300, 8), 2u);
    rMem.write(0x300, 8, 2);
    rc.onRStoreRetired(0x300, 8);
    EXPECT_EQ(rc.trackedAddresses(), 0u);
}

TEST_F(RecoveryTest, DivergentValueKeepsUndoEntry)
{
    rc.write(0x400, 8, 99); // A wrote a (possibly wrong) value
    rMem.write(0x400, 8, 77); // R computed something else
    rc.onRStoreRetired(0x400, 8);
    // Disagreement: the byte stays tracked until recovery.
    EXPECT_EQ(rc.trackedAddresses(), 1u);
}

TEST_F(RecoveryTest, DoSetTracksSkippedStoresUntilVerified)
{
    rc.onSkippedStoreRetired(5, 0x500, 8);
    rc.onSkippedStoreRetired(5, 0x508, 8);
    rc.onSkippedStoreRetired(6, 0x600, 8);
    EXPECT_EQ(rc.trackedAddresses(), 3u);
    rc.onTraceVerified(5);
    EXPECT_EQ(rc.trackedAddresses(), 1u);
    rc.onTraceVerified(6);
    EXPECT_EQ(rc.trackedAddresses(), 0u);
    rc.onTraceVerified(7); // unknown trace: harmless
}

TEST_F(RecoveryTest, RecoveryCollapsesOntoRMemory)
{
    rMem.write(0x700, 8, 1);
    rc.write(0x700, 8, 2);
    rc.onSkippedStoreRetired(3, 0x710, 8);
    rc.recover();
    EXPECT_EQ(rc.trackedAddresses(), 0u);
    EXPECT_EQ(rc.read(0x700, 8), 1u); // overlay discarded
}

TEST_F(RecoveryTest, LatencyModelMatchesTable2)
{
    // Minimum: 5 startup + 64 regs / 4 per cycle = 21 cycles.
    EXPECT_EQ(rc.recover(), 21u);

    // With 8 tracked granules: + ceil(8/4) = 2 memory cycles.
    for (int i = 0; i < 8; ++i)
        rc.write(0x800 + 8 * i, 8, i);
    EXPECT_EQ(rc.trackedAddresses(), 8u);
    EXPECT_EQ(rc.recover(), 23u);
}

TEST_F(RecoveryTest, TrackedCountUsesGranules)
{
    // 8 single-byte A-stores within one 8-byte granule = 1 tracked.
    for (int i = 0; i < 8; ++i)
        rc.write(0x900 + i, 1, i);
    EXPECT_EQ(rc.trackedAddresses(), 1u);
}

TEST_F(RecoveryTest, RecoveryMidWindowLeavesConsistentState)
{
    // A recovery can land while R-stream retirement callbacks for
    // pre-recovery instructions are still arriving (the R core drains
    // its older in-flight work during the repair). Those late
    // callbacks must not resurrect tracking or corrupt the overlay.
    rc.write(0x100, 8, 1);
    rc.onSkippedStoreRetired(2, 0x200, 8);
    EXPECT_EQ(rc.trackedAddresses(), 2u);
    rc.recover();
    EXPECT_EQ(rc.trackedAddresses(), 0u);

    // Late arrivals from the discarded window.
    rMem.write(0x100, 8, 1);
    rc.onRStoreRetired(0x100, 8);
    rc.onTraceVerified(2);
    EXPECT_EQ(rc.trackedAddresses(), 0u);

    // The controller keeps working normally afterwards.
    rc.write(0x300, 8, 7);
    EXPECT_EQ(rc.read(0x300, 8), 7u);
    EXPECT_EQ(rc.trackedAddresses(), 1u);
    rMem.write(0x300, 8, 7);
    rc.onRStoreRetired(0x300, 8);
    EXPECT_EQ(rc.trackedAddresses(), 0u);
}

TEST_F(RecoveryTest, TrackedReturnsToZeroAfterRecoverUnderLoad)
{
    // Dense mixed load: many overlay granules plus skipped-store
    // do-set entries across several traces.
    for (int i = 0; i < 64; ++i)
        rc.write(0x1000 + 8 * i, 8, uint64_t(i));
    for (int i = 0; i < 16; ++i)
        rc.onSkippedStoreRetired(uint64_t(i), 0x2000 + 8 * i, 8);
    EXPECT_EQ(rc.trackedAddresses(), 80u);

    rc.recover();
    EXPECT_EQ(rc.trackedAddresses(), 0u);
    // Empty again: a second recovery is back at the minimum latency.
    EXPECT_EQ(rc.recover(), 21u);
}

TEST_F(RecoveryTest, StatsRecordRecoveries)
{
    rc.write(0xa00, 8, 5);
    rc.recover();
    EXPECT_EQ(rc.stats().get("recoveries"), 1u);
    EXPECT_EQ(rc.stats().getDistribution("tracked_at_recovery").max(),
              1u);
}

TEST_F(RecoveryTest, AccessesWrapPast2To64)
{
    // An 8-byte store at 2^64 - 4 covers the top granule and granule 0.
    rMem.write(0, 8, 0x1111111111111111ull);
    rc.write(~Addr(0) - 3, 8, 0x8877665544332211ull);
    EXPECT_EQ(rc.trackedAddresses(), 2u);
    EXPECT_EQ(rc.read(0, 4), 0x88776655u);
    EXPECT_EQ(rc.read(~Addr(0) - 3, 8), 0x8877665544332211ull);
    EXPECT_EQ(rc.read(2, 4), 0x11118877u);
    // R retires the same store: both granules are reclaimed.
    rMem.write(~Addr(0) - 3, 8, 0x8877665544332211ull);
    rc.onRStoreRetired(~Addr(0) - 3, 8);
    EXPECT_EQ(rc.trackedAddresses(), 0u);
}

/**
 * Reference model: the recovery controller with its undo overlay kept
 * one map node per byte and read byte by byte. The granule-keyed
 * overlay must reproduce it exactly.
 */
class PerByteRecovery
{
  public:
    explicit PerByteRecovery(Memory &rMem) : rMem(rMem) {}

    uint64_t
    read(Addr addr, unsigned bytes)
    {
        uint64_t value = 0;
        for (unsigned i = 0; i < bytes; ++i) {
            const Addr a = addr + i;
            auto it = overlay.find(a);
            const uint8_t byte = it != overlay.end()
                                     ? it->second.value
                                     : uint8_t(rMem.read(a, 1));
            value |= uint64_t(byte) << (8 * i);
        }
        return value;
    }

    void
    write(Addr addr, unsigned bytes, uint64_t value)
    {
        for (unsigned i = 0; i < bytes; ++i) {
            Byte &b = overlay[addr + i];
            b.value = uint8_t(value >> (8 * i));
            ++b.pendingStores;
        }
    }

    void
    onRStoreRetired(Addr addr, unsigned bytes)
    {
        for (unsigned i = 0; i < bytes; ++i) {
            const Addr a = addr + i;
            auto it = overlay.find(a);
            if (it == overlay.end())
                continue;
            if (it->second.pendingStores > 0)
                --it->second.pendingStores;
            if (it->second.pendingStores == 0 &&
                it->second.value == uint8_t(rMem.read(a, 1)))
                overlay.erase(it);
        }
    }

    void
    onSkippedStoreRetired(uint64_t packetNum, Addr addr, unsigned bytes)
    {
        auto &granules = doSet[packetNum];
        for (Addr g = addr >> 3; g <= (addr + bytes - 1) >> 3; ++g)
            granules.insert(g);
    }

    void onTraceVerified(uint64_t packetNum) { doSet.erase(packetNum); }

    size_t
    trackedAddresses() const
    {
        std::unordered_set<Addr> granules;
        for (const auto &[addr, byte] : overlay)
            granules.insert(addr >> 3);
        size_t tracked = granules.size();
        for (const auto &[packet, set] : doSet)
            tracked += set.size();
        return tracked;
    }

    Cycle
    recover()
    {
        const RecoveryParams params;
        const size_t tracked = trackedAddresses();
        overlay.clear();
        doSet.clear();
        return params.startupCycles +
               (kNumRegs + params.regRestoresPerCycle - 1) /
                   params.regRestoresPerCycle +
               (tracked + params.memRestoresPerCycle - 1) /
                   params.memRestoresPerCycle;
    }

  private:
    struct Byte
    {
        uint8_t value = 0;
        uint32_t pendingStores = 0;
    };

    Memory &rMem;
    std::unordered_map<Addr, Byte> overlay;
    std::unordered_map<uint64_t, std::unordered_set<Addr>> doSet;
};

/**
 * Hot spots that make accesses overlap: unaligned and granule-
 * crossing addresses, a page boundary, the last 8 bytes below 2^64
 * (whose accesses wrap) and the first 8 above 0 (where they land).
 */
Addr
pickAddr(Rng &rng)
{
    switch (rng.below(4)) {
      case 0:
        return 0x10000 + rng.below(64);
      case 1:
        return 0x11000 - 12 + rng.below(16);
      case 2:
        return ~Addr(7) + rng.below(8);
      default:
        return rng.below(8);
    }
}

unsigned
pickBytes(Rng &rng)
{
    return 1u << rng.below(4);
}

class RecoveryOverlayEquivalence
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RecoveryOverlayEquivalence, MatchesPerByteReference)
{
    Rng rng(GetParam());
    Memory rMem;
    for (Addr a : {Addr(0x10000), Addr(0x11000 - 16), ~Addr(15), Addr(0)})
        for (Addr off = 0; off < 80; off += 8)
            rMem.write(a + off, 8, rng.next());
    RecoveryController rc(rMem);
    PerByteRecovery ref(rMem);

    unsigned recoveries = 0;
    for (unsigned op = 0; op < 100000; ++op) {
        const Addr addr = pickAddr(rng);
        const unsigned bytes = pickBytes(rng);
        const uint64_t kind = rng.below(100);
        if (kind < 35) { // A load
            ASSERT_EQ(rc.read(addr, bytes), ref.read(addr, bytes))
                << "op " << op << " read 0x" << std::hex << addr;
        } else if (kind < 65) { // A store
            const uint64_t value = rng.next();
            rc.write(addr, bytes, value);
            ref.write(addr, bytes, value);
        } else if (kind < 85) { // R store retires
            const uint64_t r = rng.below(10);
            if (r < 5) // the A-stream's value: streams agree
                rMem.write(addr, bytes, ref.read(addr, bytes));
            else if (r < 9) // the streams differ
                rMem.write(addr, bytes, rng.next());
            rc.onRStoreRetired(addr, bytes);
            ref.onRStoreRetired(addr, bytes);
        } else if (kind < 93) {
            const uint64_t packet = rng.below(8);
            rc.onSkippedStoreRetired(packet, addr, bytes);
            ref.onSkippedStoreRetired(packet, addr, bytes);
        } else if (kind < 99) {
            const uint64_t packet = rng.below(8);
            rc.onTraceVerified(packet);
            ref.onTraceVerified(packet);
        } else if (rng.below(4) == 0) {
            ASSERT_EQ(rc.recover(), ref.recover()) << "op " << op;
            ++recoveries;
        }
        ASSERT_EQ(rc.trackedAddresses(), ref.trackedAddresses())
            << "op " << op;
    }
    EXPECT_GT(recoveries, 100u);
}

/**
 * The overlay grown to thousands of granules, through several
 * doublings of its table, then drained by R retirements in shuffled
 * order, which deletes granules from the middle of probe runs; three
 * rounds, with a recovery between them. Checked against the per-byte
 * reference throughout. The granules are scattered over a 1 MB
 * window: consecutive ones would hash to distinct slots and never
 * share a probe run.
 */
TEST_P(RecoveryOverlayEquivalence, GrowsAndDrainsLikePerByteReference)
{
    constexpr Addr kBase = 0x400000;
    constexpr unsigned kGranules = 4096;
    Rng rng(GetParam());
    Memory rMem;
    RecoveryController rc(rMem);
    PerByteRecovery ref(rMem);
    std::vector<Addr> granules;
    for (unsigned i = 0; i < kGranules; ++i)
        granules.push_back(kBase + 8 * rng.below(1 << 17));
    const auto pick = [&] {
        return granules[rng.below(kGranules)] + rng.below(8);
    };
    const auto compareRead = [&](unsigned op) {
        const Addr addr = pick();
        const unsigned bytes = pickBytes(rng);
        ASSERT_EQ(rc.read(addr, bytes), ref.read(addr, bytes))
            << "op " << op << " read 0x" << std::hex << addr;
    };

    for (unsigned round = 0; round < 3; ++round) {
        std::vector<std::pair<Addr, unsigned>> stores;
        for (unsigned op = 0; op < 6000; ++op) {
            const Addr addr = pick();
            const unsigned bytes = pickBytes(rng);
            const uint64_t value = rng.next();
            rc.write(addr, bytes, value);
            ref.write(addr, bytes, value);
            stores.emplace_back(addr, bytes);
            compareRead(op);
            if (op % 64 == 0) {
                ASSERT_EQ(rc.trackedAddresses(), ref.trackedAddresses());
            }
        }
        ASSERT_GT(rc.trackedAddresses(), kGranules / 4);
        ASSERT_EQ(rc.trackedAddresses(), ref.trackedAddresses());

        for (size_t i = stores.size(); i > 1; --i)
            std::swap(stores[i - 1], stores[rng.below(i)]);
        for (unsigned op = 0; op < stores.size(); ++op) {
            const auto [addr, bytes] = stores[op];
            // Mostly the A-stream's value, so most windows close.
            rMem.write(addr, bytes,
                       rng.below(10) < 8 ? ref.read(addr, bytes)
                                         : rng.next());
            rc.onRStoreRetired(addr, bytes);
            ref.onRStoreRetired(addr, bytes);
            compareRead(op);
            if (op % 64 == 0) {
                ASSERT_EQ(rc.trackedAddresses(), ref.trackedAddresses());
            }
        }
        ASSERT_EQ(rc.trackedAddresses(), ref.trackedAddresses());
        ASSERT_EQ(rc.recover(), ref.recover());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryOverlayEquivalence,
                         ::testing::Values(1u, 2u, 3u));

} // namespace
} // namespace slip
