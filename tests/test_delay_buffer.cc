#include <gtest/gtest.h>

#include "slipstream/delay_buffer.hh"

namespace slip
{
namespace
{

Packet
packetOf(uint64_t num, unsigned slots, unsigned executed)
{
    Packet p;
    p.num = num;
    p.actualId = TraceId{0x1000, 0, 0, uint8_t(slots)};
    p.slots.resize(slots);
    for (unsigned i = 0; i < executed; ++i)
        p.slots[i].executedInA = true;
    p.executedCount = executed;
    return p;
}

void
push(DelayBuffer &db, Packet packet)
{
    db.push(packet);
}

uint64_t
popNum(DelayBuffer &db)
{
    Packet p;
    db.pop(p);
    return p.num;
}

TEST(DelayBuffer, FifoOrder)
{
    DelayBuffer db;
    push(db, packetOf(1, 4, 4));
    push(db, packetOf(2, 4, 4));
    EXPECT_EQ(db.front().num, 1u);
    EXPECT_EQ(popNum(db), 1u);
    EXPECT_EQ(popNum(db), 2u);
    EXPECT_TRUE(db.empty());
}

TEST(DelayBuffer, OccupancyAccounting)
{
    DelayBuffer db;
    push(db, packetOf(1, 8, 5));
    push(db, packetOf(2, 8, 3));
    EXPECT_EQ(db.controlEntries(), 2u);
    EXPECT_EQ(db.dataEntries(), 8u);
    popNum(db);
    EXPECT_EQ(db.dataEntries(), 3u);
    popNum(db);
    EXPECT_EQ(db.dataEntries(), 0u);
}

TEST(DelayBuffer, ControlCapacityLimit)
{
    DelayBufferParams params;
    params.controlCapacity = 2;
    params.dataCapacity = 1000;
    DelayBuffer db(params);
    EXPECT_TRUE(db.canPush(1));
    push(db, packetOf(1, 1, 1));
    push(db, packetOf(2, 1, 1));
    EXPECT_FALSE(db.canPush(1));
    popNum(db);
    EXPECT_TRUE(db.canPush(1));
}

TEST(DelayBuffer, DataCapacityLimit)
{
    DelayBufferParams params;
    params.controlCapacity = 100;
    params.dataCapacity = 10;
    DelayBuffer db(params);
    push(db, packetOf(1, 8, 8));
    EXPECT_TRUE(db.canPush(2));
    EXPECT_FALSE(db.canPush(3));
    // Fully-removed traces consume only a control entry.
    EXPECT_TRUE(db.canPush(0));
}

TEST(DelayBuffer, PushBeyondCapacityPanics)
{
    DelayBufferParams params;
    params.controlCapacity = 1;
    DelayBuffer db(params);
    push(db, packetOf(1, 1, 1));
    EXPECT_THROW(push(db, packetOf(2, 1, 1)), PanicError);
}

TEST(DelayBuffer, ClearFlushesEverything)
{
    DelayBuffer db;
    push(db, packetOf(1, 4, 4));
    db.clear();
    EXPECT_TRUE(db.empty());
    EXPECT_EQ(db.dataEntries(), 0u);
    EXPECT_EQ(db.stats().get("flushes"), 1u);
}

TEST(DelayBuffer, EmptyAccessPanics)
{
    DelayBuffer db;
    Packet p;
    EXPECT_THROW(db.front(), PanicError);
    EXPECT_THROW(db.pop(p), PanicError);
}

TEST(DelayBuffer, PaperDefaultsMatchTable2)
{
    DelayBuffer db;
    EXPECT_EQ(db.params().controlCapacity, 128u);
    EXPECT_EQ(db.params().dataCapacity, 256u);
}

TEST(DelayBuffer, RoundTripRecyclesPacketStorage)
{
    // A producer and a consumer each keep one Packet and trade storage
    // with the buffer. After the first trips every push hands the
    // producer storage an earlier packet grew, so refilling it
    // allocates nothing: the steady state is allocation-free.
    DelayBuffer db;
    Packet producer;
    Packet consumer;
    for (uint64_t n = 1; n <= 16; ++n) {
        const PacketSlot *before = producer.slots.data();
        const size_t capacity = producer.slots.capacity();
        producer.num = n;
        producer.slots.clear();
        producer.slots.resize(16);
        producer.executedCount = 0;
        if (n > 3) {
            EXPECT_GE(capacity, 16u) << "packet " << n;
            EXPECT_EQ(producer.slots.data(), before) << "packet " << n;
        }
        db.push(producer);
        db.pop(consumer);
        EXPECT_EQ(consumer.num, n);
        EXPECT_EQ(consumer.slots.size(), 16u);
    }
}

} // namespace
} // namespace slip
