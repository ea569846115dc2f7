#include <gtest/gtest.h>

#include <vector>

#include "common/ring.hh"

namespace slip
{
namespace
{

TEST(Ring, FifoOrderAcrossWrap)
{
    Ring<int> r(4);
    for (int i = 0; i < 3; ++i)
        r.pushBack(i);
    r.popFront();
    r.popFront();
    for (int i = 3; i < 6; ++i)
        r.pushBack(i); // wraps around the end of the buffer
    ASSERT_EQ(r.size(), 4u);
    for (size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], int(i) + 2);
    EXPECT_EQ(r.front(), 2);
    EXPECT_EQ(r.back(), 5);
}

TEST(Ring, GrowsWhileWrappedKeepingOrder)
{
    Ring<int> r(4);
    for (int i = 0; i < 4; ++i)
        r.pushBack(i);
    r.popFront();
    r.popFront();
    r.pushBack(4);
    r.pushBack(5); // full, head mid-buffer
    for (int i = 6; i < 11; ++i)
        r.pushBack(i); // grows
    ASSERT_EQ(r.size(), 9u);
    for (size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], int(i) + 2);
    while (!r.empty()) {
        const int want = r.front() + 1;
        r.popFront();
        if (!r.empty()) {
            EXPECT_EQ(r.front(), want);
        }
    }
}

TEST(Ring, PushedSlotKeepsPreviousStorage)
{
    Ring<std::vector<int>> r(1);
    r.pushBack().assign(100, 7);
    const int *storage = r.front().data();
    r.popFront();
    std::vector<int> &reused = r.pushBack();
    EXPECT_EQ(reused.data(), storage); // stale contents, same buffer
    reused.clear();
    EXPECT_GE(reused.capacity(), 100u);
}

TEST(Ring, ClearEmpties)
{
    Ring<int> r(2);
    r.pushBack(1);
    r.pushBack(2);
    r.clear();
    EXPECT_TRUE(r.empty());
    r.pushBack(3);
    EXPECT_EQ(r.front(), 3);
    EXPECT_EQ(r.size(), 1u);
}

} // namespace
} // namespace slip
