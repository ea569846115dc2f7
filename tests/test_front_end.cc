#include <gtest/gtest.h>

#include <string>

#include "assembler/assembler.hh"
#include "common/stats.hh"
#include "uarch/fetch_source.hh"

namespace slip
{
namespace
{

// entry+0:  call f  (JAL ra)
// entry+4:  beq     (forward)
// entry+8:  halt
// entry+12: ret     (JALR zero, ra)
const char *kCallProgram = R"(
main:
    call f
    beq  t0, t1, done
done:
    halt
f:
    ret
)";

StaticInst
branch(int64_t off)
{
    return {Opcode::BNE, 0, 5, 0, off};
}

/** Every lookup the predictor answered, whatever it answered. */
uint64_t
lookups(const TracePredictor &pred)
{
    const StatGroup &s = pred.stats();
    return s.get("predict_correlated") + s.get("predict_simple") +
           s.get("predict_correlated_weak") + s.get("predict_none");
}

class FrontEnd : public ::testing::Test
{
  protected:
    FrontEnd()
        : program(assemble(kCallProgram)), entry(program.entry()),
          fe(program, pred, TracePolicy{})
    {
        fe.linkStats(stats);
    }

    const StaticInst &at(Addr pc) const { return program.fetch(pc); }

    /** The call-then-return trace, as a walk records it. */
    TraceId
    callTrace() const
    {
        TraceId id;
        id.startPc = entry;
        id.append(at(entry), true);
        id.append(at(entry + 12), true);
        return id;
    }

    Program program;
    Addr entry;
    TracePredictor pred;
    TraceFrontEnd fe;
    StatGroup stats;
};

TEST_F(FrontEnd, ColdPredictorGivesTheStaticGuess)
{
    const unsigned cap = fe.begin(entry);
    EXPECT_EQ(fe.guess(), buildStaticTrace(program, entry));
    EXPECT_EQ(cap, fe.guess().length);
    EXPECT_EQ(stats.get("traces_fallback"), 1u);
    EXPECT_EQ(stats.get("traces_predicted"), 0u);
}

TEST_F(FrontEnd, PredictionStartingElsewhereFallsBack)
{
    const TraceId elsewhere{entry + 8, 0, 0, 1};
    pred.update(PathHistory{}, elsewhere);

    fe.begin(entry);
    EXPECT_EQ(fe.guess(), buildStaticTrace(program, entry));
    EXPECT_EQ(stats.get("traces_fallback"), 1u);

    // The same prediction is taken where it does start.
    TraceFrontEnd there(program, pred, TracePolicy{});
    StatGroup thereStats;
    there.linkStats(thereStats);
    EXPECT_EQ(there.begin(entry + 8), 1u);
    EXPECT_EQ(there.guess(), elsewhere);
    EXPECT_EQ(thereStats.get("traces_predicted"), 1u);
}

TEST_F(FrontEnd, BranchesPastTheGuessBitsAreBtfn)
{
    // One known branch, taken, in a guess longer than the policy's cap.
    pred.update(PathHistory{}, TraceId{entry, 0b1, 1, 40});
    EXPECT_EQ(fe.begin(entry), kMaxTraceLen);
    EXPECT_EQ(stats.get("traces_predicted"), 1u);

    EXPECT_TRUE(fe.predictBranch(branch(4)));   // the guess's bit
    EXPECT_FALSE(fe.predictBranch(branch(4)));  // forward: not taken
    EXPECT_TRUE(fe.predictBranch(branch(-4)));  // backward: taken

    // Back on the same path, the next trace starts over at the
    // guess's first bit.
    fe.resync(PathHistory{});
    fe.begin(entry);
    EXPECT_TRUE(fe.predictBranch(branch(4)));
}

TEST_F(FrontEnd, ReturnTargetComesFromTheRas)
{
    fe.begin(entry);
    fe.noteCall(at(entry), entry);
    EXPECT_FALSE(fe.end(callTrace(), at(entry + 12), entry + 4, false));
    EXPECT_EQ(stats.get("indirect_mispredicts"), 0u);
}

TEST_F(FrontEnd, WrongIndirectTargetIsCountedOnce)
{
    fe.begin(entry);
    // No call was walked: the RAS has nothing for the return.
    EXPECT_TRUE(fe.end(callTrace(), at(entry + 12), entry + 4, false));
    EXPECT_EQ(stats.get("indirect_mispredicts"), 1u);

    // A trace that does not end in an indirect jump checks nothing.
    fe.begin(entry + 4);
    TraceId fallThrough{entry + 4, 0, 1, 2};
    EXPECT_FALSE(fe.end(fallThrough, at(entry + 8), entry + 8, false));
    EXPECT_EQ(stats.get("indirect_mispredicts"), 1u);
}

TEST_F(FrontEnd, TruncatedTraceSkipsTheTargetCheck)
{
    fe.begin(entry);
    EXPECT_FALSE(fe.end(callTrace(), at(entry + 12), entry + 4, true));
    EXPECT_EQ(stats.get("trace_mispredicts"), 1u);
    EXPECT_EQ(stats.get("indirect_mispredicts"), 0u);
}

TEST_F(FrontEnd, PredictedReturnTargetKeepsTheRasBalanced)
{
    // After the call trace, the predictor knows the next trace.
    PathHistory after;
    after.push(callTrace());
    const TraceId next{entry + 4, 0, 1, 2};
    pred.update(after, next);

    fe.begin(entry);
    fe.noteCall(at(entry), entry);
    EXPECT_FALSE(fe.end(callTrace(), at(entry + 12), entry + 4, false));
    // The predictor supplied the target and the call's address was
    // popped all the same: a return with nothing predicted now finds
    // the RAS empty.
    fe.begin(entry + 4);
    EXPECT_TRUE(fe.end(next, at(entry + 12), entry + 4, false));
    EXPECT_EQ(stats.get("indirect_mispredicts"), 1u);
}

TEST_F(FrontEnd, NextBeginReusesTheIndirectCheckLookup)
{
    PathHistory after;
    after.push(callTrace());
    const TraceId next{entry + 4, 0, 1, 2};
    pred.update(after, next);

    fe.begin(entry);
    fe.noteCall(at(entry), entry);
    const uint64_t before = lookups(pred);
    fe.end(callTrace(), at(entry + 12), entry + 4, false);
    fe.begin(entry + 4);
    EXPECT_EQ(lookups(pred), before + 1);
    EXPECT_EQ(fe.guess(), next);
    EXPECT_EQ(stats.get("traces_predicted"), 1u);

    // Without an indirect check, begin() looks up afresh.
    fe.end(next, at(entry + 8), entry + 8, false);
    fe.begin(entry + 8);
    EXPECT_EQ(lookups(pred), before + 2);
}

TEST_F(FrontEnd, ResyncAdoptsHistoryAndForgetsRasAndLookup)
{
    fe.begin(entry);
    fe.noteCall(at(entry), entry);
    fe.end(callTrace(), at(entry + 8), entry + 8, false);

    PathHistory other;
    other.push(TraceId{entry + 8, 0, 0, 1});
    fe.resync(other);
    EXPECT_EQ(fe.history().correlatedHash(), other.correlatedHash());

    // The RAS lost the call: the return is mispredicted.
    fe.begin(entry);
    EXPECT_TRUE(fe.end(callTrace(), at(entry + 12), entry + 4, false));

    // That check cached a lookup; resync drops it.
    fe.resync(other);
    const uint64_t before = lookups(pred);
    fe.begin(entry);
    EXPECT_EQ(lookups(pred), before + 1);
}

TEST(FrontEndPolicy, TraceLengthMustFitTheBranchBits)
{
    const Program program = assemble(kCallProgram);
    TracePredictor pred;
    EXPECT_THROW(
        { TraceFrontEnd empty(program, pred, TracePolicy{0, true}); },
        FatalError);
    try {
        TraceFrontEnd tooLong(program, pred,
                              TracePolicy{kTraceLenLimit + 1, true});
        ADD_FAILURE() << "a 65-instruction trace was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("trace length 65"),
                  std::string::npos)
            << e.what();
    }
    TraceFrontEnd longest(program, pred, TracePolicy{kTraceLenLimit, true});
    EXPECT_EQ(longest.policy().maxLen, kTraceLenLimit);
}

TEST(Ras, LifoOrder)
{
    ReturnAddressStack ras(4);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_TRUE(ras.empty());
    EXPECT_EQ(ras.pop(), 0u); // empty pops are safe
}

TEST(Ras, BoundedDepthDropsOldest)
{
    ReturnAddressStack ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3);
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
    EXPECT_TRUE(ras.empty()); // 1 was dropped
}

TEST(Ras, ClearEmpties)
{
    ReturnAddressStack ras;
    ras.push(7);
    ras.clear();
    EXPECT_TRUE(ras.empty());
}

} // namespace
} // namespace slip
