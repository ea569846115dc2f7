#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <unordered_map>

#include "common/bitutils.hh"
#include "common/random.hh"
#include "slipstream/operand_rename_table.hh"

namespace slip
{
namespace
{

OrtProducer
prod(uint64_t packet, uint8_t slot)
{
    return OrtProducer{packet, slot};
}

/**
 * Reference model: the table with scope eviction done the simple way,
 * by scanning every register and memory entry for the leaving packet.
 * The invalidation log must reproduce it exactly.
 */
class FullScanOrt
{
  public:
    const OrtProducer *
    readReg(RegIndex r)
    {
        return r == kZeroReg ? nullptr : read(regs[r]);
    }

    const OrtProducer *
    readMem(Addr addr, unsigned bytes)
    {
        auto it = mem.find(key(addr, bytes));
        return it == mem.end() ? nullptr : read(it->second);
    }

    OrtWriteResult
    writeReg(RegIndex r, Word value, const OrtProducer &producer)
    {
        return r == kZeroReg ? OrtWriteResult{}
                             : write(regs[r], value, producer);
    }

    OrtWriteResult
    writeMem(Addr addr, unsigned bytes, Word value,
             const OrtProducer &producer)
    {
        return write(mem[key(addr, bytes)], value, producer);
    }

    void
    invalidateProducer(uint64_t packetNum)
    {
        for (Entry &e : regs) {
            if (e.producerValid && e.producer.packetNum == packetNum)
                e.producerValid = false;
        }
        for (auto &[k, e] : mem) {
            if (e.producerValid && e.producer.packetNum == packetNum)
                e.producerValid = false;
        }
    }

    void
    reset()
    {
        regs.fill(Entry{});
        mem.clear();
    }

    size_t memEntryCount() const { return mem.size(); }

  private:
    struct Entry
    {
        bool valid = false;
        bool producerValid = false;
        bool ref = false;
        Word value = 0;
        OrtProducer producer;
    };

    static uint64_t
    key(Addr addr, unsigned bytes)
    {
        return (addr << 2) | floorLog2(bytes);
    }

    static const OrtProducer *
    read(Entry &e)
    {
        if (!e.valid)
            return nullptr;
        e.ref = true;
        return e.producerValid ? &e.producer : nullptr;
    }

    static OrtWriteResult
    write(Entry &e, Word value, const OrtProducer &producer)
    {
        OrtWriteResult result;
        if (e.valid && e.value == value) {
            result.nonModifying = true;
            return result;
        }
        if (e.valid && e.producerValid) {
            result.killedValid = true;
            result.killed = e.producer;
            result.killedUnreferenced = !e.ref;
        }
        e = Entry{true, true, false, value, producer};
        return result;
    }

    std::array<Entry, kNumRegs> regs{};
    std::unordered_map<uint64_t, Entry> mem;
};

void
expectSameRead(const OrtProducer *got, const OrtProducer *want)
{
    ASSERT_EQ(got == nullptr, want == nullptr);
    if (got) {
        EXPECT_EQ(*got, *want);
    }
}

void
expectSameWrite(const OrtWriteResult &got, const OrtWriteResult &want)
{
    EXPECT_EQ(got.nonModifying, want.nonModifying);
    ASSERT_EQ(got.killedValid, want.killedValid);
    if (got.killedValid) {
        EXPECT_EQ(got.killed, want.killed);
        EXPECT_EQ(got.killedUnreferenced, want.killedUnreferenced);
    }
}

/**
 * One seeded stream of register and memory reads and writes (few
 * locations and few values, so kills and same-value writes are
 * common) from packets that enter an 8-packet scope and leave it
 * oldest-first, with the occasional reset(). Most register traffic
 * hits eight registers, the rest any of the 64 (r0 included); after
 * some evictions every register's producer is compared, which is
 * what per-packet register masks must get right.
 */
void
runAgainstReference(uint64_t seed)
{
    constexpr size_t kScope = 8;
    Rng rng(seed);
    OperandRenameTable ort;
    FullScanOrt ref;
    std::deque<uint64_t> scope{1};
    uint64_t packet = 1;

    for (unsigned step = 0; step < 200000; ++step) {
        const RegIndex r =
            static_cast<RegIndex>(rng.below(rng.chance(0.2) ? 64 : 8));
        // A few hot locations, and a wide range that grows the flat
        // memory table through several doublings.
        const Addr addr = 0x1000 + 8 * rng.below(rng.chance(0.1) ? 8192 : 24);
        const unsigned bytes = 1u << rng.below(4);
        const Word value = rng.below(3);
        const OrtProducer self =
            prod(packet, static_cast<uint8_t>(rng.below(32)));

        switch (rng.below(16)) {
          case 0: case 1: case 2:
            expectSameRead(ort.readReg(r), ref.readReg(r));
            break;
          case 3: case 4: case 5:
            expectSameRead(ort.readMem(addr, bytes),
                           ref.readMem(addr, bytes));
            break;
          case 6: case 7: case 8:
            expectSameWrite(ort.writeReg(r, value, self),
                            ref.writeReg(r, value, self));
            break;
          case 9: case 10: case 11: case 12:
            expectSameWrite(ort.writeMem(addr, bytes, value, self),
                            ref.writeMem(addr, bytes, value, self));
            break;
          case 13: case 14:
            // Next packet; numbers skip like divergent packets do.
            packet += 1 + rng.below(3);
            scope.push_back(packet);
            if (scope.size() > kScope) {
                ort.invalidateProducer(scope.front());
                ref.invalidateProducer(scope.front());
                scope.pop_front();
                if (rng.chance(0.1)) {
                    for (unsigned reg = 0; reg < kNumRegs; ++reg) {
                        const RegIndex ri = static_cast<RegIndex>(reg);
                        expectSameRead(ort.readReg(ri), ref.readReg(ri));
                    }
                }
            }
            break;
          default:
            if (rng.chance(0.01)) {
                ort.reset();
                ref.reset();
                scope.assign(1, packet);
            }
            break;
        }
        ASSERT_EQ(ort.memEntryCount(), ref.memEntryCount());
        if (testing::Test::HasFailure())
            FAIL() << "seed " << seed << " diverged at step " << step;
    }
}

TEST(Ort, InvalidationLogMatchesFullScan)
{
    for (uint64_t seed : {1, 2, 3}) {
        runAgainstReference(seed);
        if (HasFailure())
            break;
    }
}

TEST(Ort, CapSweepKeepsInScopeProducers)
{
    constexpr uint64_t kCap = uint64_t(1) << 20;
    constexpr Addr kBase = 0x1000000;
    OperandRenameTable ort;
    // Packet 1 fills the table past its cap, then leaves the scope:
    // every one of its entries becomes value-only.
    for (uint64_t i = 0; i <= kCap; ++i)
        ort.writeMem(kBase + 8 * i, 8, i + 1, prod(1, 0));
    // Packets 2 and 3 stay in scope; packet 2 also takes over one of
    // packet 1's locations.
    ort.writeMem(0x10, 8, 7, prod(2, 1));
    ort.writeMem(kBase, 8, 1234, prod(2, 2));
    ort.writeMem(0x18, 8, 9, prod(3, 0));
    ASSERT_EQ(ort.memEntryCount(), kCap + 3);

    ort.invalidateProducer(1); // over the cap: value-only entries shed
    EXPECT_EQ(ort.memEntryCount(), 3u);
    const OrtProducer *p = ort.readMem(0x10, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, prod(2, 1));
    p = ort.readMem(kBase, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, prod(2, 2));
    p = ort.readMem(0x18, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, prod(3, 0));
    // A shed location lost its value too.
    EXPECT_FALSE(ort.writeMem(kBase + 8, 8, 2, prod(4, 0)).nonModifying);

    // Eviction after the sweep still drops exactly the leaving
    // packet's producers.
    ort.invalidateProducer(2);
    EXPECT_EQ(ort.readMem(0x10, 8), nullptr);
    EXPECT_EQ(ort.readMem(kBase, 8), nullptr);
    p = ort.readMem(0x18, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, prod(3, 0));
    ort.invalidateProducer(3);
    EXPECT_EQ(ort.readMem(0x18, 8), nullptr);
    p = ort.readMem(kBase + 8, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, prod(4, 0));
    // Values survive eviction: same-value writes are still detected.
    EXPECT_TRUE(ort.writeMem(0x18, 8, 9, prod(5, 0)).nonModifying);
}

TEST(Ort, OutOfOrderUseIsRejected)
{
    OperandRenameTable ort;
    ort.writeMem(0x100, 8, 1, prod(2, 0));
    EXPECT_THROW(ort.writeMem(0x108, 8, 1, prod(1, 0)), PanicError);
    EXPECT_THROW(ort.invalidateProducer(3), PanicError);
}

TEST(Ort, FreshWriteKillsNothing)
{
    OperandRenameTable ort;
    const OrtWriteResult w = ort.writeReg(5, 100, prod(1, 0));
    EXPECT_FALSE(w.nonModifying);
    EXPECT_FALSE(w.killedValid);
}

TEST(Ort, SameValueWriteIsNonModifying)
{
    OperandRenameTable ort;
    ort.writeReg(5, 100, prod(1, 0));
    const OrtWriteResult w = ort.writeReg(5, 100, prod(1, 3));
    EXPECT_TRUE(w.nonModifying);
    EXPECT_FALSE(w.killedValid);
    // The old producer stays live: a later different write kills the
    // ORIGINAL producer, not the non-modifying one.
    const OrtWriteResult w2 = ort.writeReg(5, 200, prod(1, 5));
    ASSERT_TRUE(w2.killedValid);
    EXPECT_EQ(w2.killed, prod(1, 0));
}

TEST(Ort, DifferentValueKillsAndReportsUnreferenced)
{
    OperandRenameTable ort;
    ort.writeReg(5, 100, prod(1, 0));
    const OrtWriteResult w = ort.writeReg(5, 200, prod(1, 4));
    ASSERT_TRUE(w.killedValid);
    EXPECT_EQ(w.killed, prod(1, 0));
    EXPECT_TRUE(w.killedUnreferenced); // never read
}

TEST(Ort, ReadSetsReferenceBit)
{
    OperandRenameTable ort;
    ort.writeReg(5, 100, prod(1, 0));
    const OrtProducer *p = ort.readReg(5);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, prod(1, 0));
    const OrtWriteResult w = ort.writeReg(5, 200, prod(1, 4));
    ASSERT_TRUE(w.killedValid);
    EXPECT_FALSE(w.killedUnreferenced);
}

TEST(Ort, ZeroRegisterIsInert)
{
    OperandRenameTable ort;
    EXPECT_EQ(ort.readReg(kZeroReg), nullptr);
    const OrtWriteResult w = ort.writeReg(kZeroReg, 5, prod(1, 0));
    EXPECT_FALSE(w.nonModifying);
    EXPECT_FALSE(w.killedValid);
    EXPECT_EQ(ort.readReg(kZeroReg), nullptr);
}

TEST(Ort, MemoryLocationsTrackedLikeRegisters)
{
    OperandRenameTable ort;
    ort.writeMem(0x2000, 8, 42, prod(1, 1));
    EXPECT_TRUE(ort.writeMem(0x2000, 8, 42, prod(1, 2)).nonModifying);
    const OrtProducer *p = ort.readMem(0x2000, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, prod(1, 1));
    const OrtWriteResult w = ort.writeMem(0x2000, 8, 43, prod(2, 0));
    ASSERT_TRUE(w.killedValid);
    EXPECT_FALSE(w.killedUnreferenced);
}

TEST(Ort, DifferentSizesAreDistinctLocations)
{
    OperandRenameTable ort;
    ort.writeMem(0x2000, 8, 42, prod(1, 0));
    // A 4-byte write to the same address is a different tracked
    // location: no kill, no non-modifying detection.
    const OrtWriteResult w = ort.writeMem(0x2000, 4, 42, prod(1, 1));
    EXPECT_FALSE(w.nonModifying);
    EXPECT_FALSE(w.killedValid);
    EXPECT_EQ(ort.memEntryCount(), 2u);
}

TEST(Ort, InvalidateProducerKeepsValueForSvDetection)
{
    OperandRenameTable ort;
    ort.writeReg(5, 100, prod(1, 0));
    ort.invalidateProducer(1);
    // Producer gone: reads find no producer, overwrites kill nothing.
    EXPECT_EQ(ort.readReg(5), nullptr);
    // But the value survives: a same-value write is still detected.
    EXPECT_TRUE(ort.writeReg(5, 100, prod(2, 0)).nonModifying);
}

TEST(Ort, InvalidateProducerSkipsNewerProducers)
{
    OperandRenameTable ort;
    ort.writeReg(5, 100, prod(1, 0));
    ort.writeReg(5, 200, prod(2, 0));
    ort.invalidateProducer(1); // r5's producer is now packet 2
    const OrtProducer *p = ort.readReg(5);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->packetNum, 2u);
}

TEST(Ort, KillAfterInvalidationYieldsNoVictim)
{
    OperandRenameTable ort;
    ort.writeMem(0x100, 8, 1, prod(1, 0));
    ort.invalidateProducer(1);
    const OrtWriteResult w = ort.writeMem(0x100, 8, 2, prod(9, 0));
    EXPECT_FALSE(w.killedValid);
}

TEST(Ort, ResetClearsEverything)
{
    OperandRenameTable ort;
    ort.writeReg(5, 1, prod(1, 0));
    ort.writeMem(0x100, 8, 1, prod(1, 1));
    ort.reset();
    EXPECT_EQ(ort.readReg(5), nullptr);
    EXPECT_EQ(ort.readMem(0x100, 8), nullptr);
    EXPECT_EQ(ort.memEntryCount(), 0u);
    // Values did not survive: same-value write is not non-modifying.
    EXPECT_FALSE(ort.writeReg(5, 1, prod(2, 0)).nonModifying);
}

} // namespace
} // namespace slip
