#include <gtest/gtest.h>

#include "slipstream/rdfg.hh"

namespace slip
{
namespace
{

TEST(Rdfg, DirectSelection)
{
    Rdfg g(4);
    g.select(2, reason::kBR);
    EXPECT_TRUE(g.selected(2));
    EXPECT_EQ(g.reasons(2), reason::kBR);
    EXPECT_EQ(g.irVec(), 0b100u);
}

TEST(Rdfg, NonRemovableSlotRefusesSelection)
{
    Rdfg g(4);
    g.setRemovable(1, false);
    g.select(1, reason::kBR);
    EXPECT_FALSE(g.selected(1));
    EXPECT_EQ(g.irVec(), 0u);
}

TEST(Rdfg, BackPropagationNeedsKillAndAllConsumersSelected)
{
    // 0 produces for 1 and 2 (all in-trace).
    Rdfg g(3);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.select(1, reason::kBR);
    EXPECT_FALSE(g.selected(0)); // consumer 2 not selected yet
    g.select(2, reason::kSV);
    EXPECT_FALSE(g.selected(0)); // not killed yet
    g.kill(0);
    EXPECT_TRUE(g.selected(0));
    // Inherits union of consumer reasons plus the P flag.
    EXPECT_EQ(g.reasons(0),
              uint8_t(reason::kProp | reason::kBR | reason::kSV));
}

TEST(Rdfg, KillBeforeSelectionAlsoPropagates)
{
    Rdfg g(2);
    g.addEdge(0, 1);
    g.kill(0);
    EXPECT_FALSE(g.selected(0));
    g.select(1, reason::kWW);
    EXPECT_TRUE(g.selected(0));
}

TEST(Rdfg, ExternalConsumerPinsProducer)
{
    Rdfg g(2);
    g.addEdge(0, 1);
    g.markExternalConsumer(0); // someone outside the trace reads it
    g.select(1, reason::kBR);
    g.kill(0);
    EXPECT_FALSE(g.selected(0));
}

TEST(Rdfg, KilledWithZeroConsumersIsNotPropSelected)
{
    // Unreferenced writes are selected *directly* by the detector
    // (WW trigger); kill alone with no consumers must not select.
    Rdfg g(1);
    g.kill(0);
    EXPECT_FALSE(g.selected(0));
}

TEST(Rdfg, ChainPropagatesTransitively)
{
    // 0 -> 1 -> 2 (branch). Selecting 2 and killing 0,1 removes all.
    Rdfg g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.select(2, reason::kBR);
    g.kill(1);
    EXPECT_TRUE(g.selected(1));
    g.kill(0);
    EXPECT_TRUE(g.selected(0));
    EXPECT_EQ(g.irVec(), 0b111u);
    EXPECT_EQ(g.reasons(0), uint8_t(reason::kProp | reason::kBR));
}

TEST(Rdfg, PartialConsumerSelectionBlocksChain)
{
    // 0 feeds a selected branch and an unselected ALU op.
    Rdfg g(3);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.select(1, reason::kBR);
    g.kill(0);
    EXPECT_FALSE(g.selected(0));
    EXPECT_EQ(g.irVec(), 0b010u);
}

TEST(Rdfg, ReasonVectorMatchesSlots)
{
    Rdfg g(3);
    g.select(0, reason::kWW);
    g.select(2, reason::kBR);
    SlotReasons reasons;
    g.reasonVector(reasons);
    EXPECT_EQ(reasons[0], reason::kWW);
    EXPECT_EQ(reasons[1], 0);
    EXPECT_EQ(reasons[2], reason::kBR);
    EXPECT_EQ(reasons[3], 0); // past the trace: no reason
}

TEST(Rdfg, DoubleSelectionMergesReasons)
{
    Rdfg g(1);
    g.select(0, reason::kWW);
    g.select(0, reason::kSV);
    EXPECT_EQ(g.reasons(0), uint8_t(reason::kWW | reason::kSV));
    EXPECT_EQ(g.irVec(), 0b1u);
}

TEST(Rdfg, OutOfRangePanics)
{
    Rdfg g(2);
    EXPECT_THROW(g.select(2, reason::kBR), PanicError);
    EXPECT_THROW(g.addEdge(0, 5), PanicError);
    EXPECT_THROW(g.addEdge(1, 1), PanicError); // self edge
}

} // namespace
} // namespace slip
