#include <gtest/gtest.h>

#include <deque>

#include "uarch/core.hh"

namespace slip
{
namespace
{

/**
 * Scripted fetch source: serves a fixed list of blocks. It owns the
 * instruction text its DynInsts point at.
 */
class ScriptedSource : public FetchSource
{
  public:
    bool
    nextBlock(FetchBlock &block) override
    {
        if (blocks.empty())
            return false;
        block = std::move(blocks.front());
        blocks.pop_front();
        return true;
    }

    bool exhausted() const override { return blocks.empty(); }

    /** Append a block of `n` simple ALU ops ending optionally in halt. */
    void
    addAluBlock(unsigned n, bool endWithHalt = false,
                RegIndex chainReg = kNoReg)
    {
        FetchBlock b;
        b.startAddr = nextPc;
        for (unsigned i = 0; i < n; ++i) {
            DynInst d;
            d.seq = ++seq;
            d.pc = nextPc;
            const bool last = endWithHalt && i + 1 == n;
            if (last) {
                d.si = inst({Opcode::HALT, 0, 0, 0, 0});
            } else if (chainReg != kNoReg) {
                // Serial dependence chain through chainReg.
                d.si = inst({Opcode::ADDI, chainReg, chainReg, 0, 1});
                d.wroteReg = true;
                d.destReg = chainReg;
            } else {
                d.si = inst({Opcode::ADDI, RegIndex(1 + (seq % 8)), 0, 0,
                             1});
                d.wroteReg = true;
                d.destReg = RegIndex(1 + (seq % 8));
            }
            nextPc += 4;
            b.insts.push_back(d);
        }
        blocks.push_back(std::move(b));
    }

    /** Keep `si` in the source's text; return its stable address. */
    const StaticInst *
    inst(const StaticInst &si)
    {
        return &text.emplace_back(si);
    }

    std::deque<FetchBlock> blocks;
    std::deque<StaticInst> text;
    InstSeqNum seq = 0;
    Addr nextPc = 0x1000;
};

Cycle
runToHalt(OoOCore &core, Cycle limit = 100000)
{
    Cycle now = 0;
    while (!core.halted() && now < limit) {
        core.tick(now);
        ++now;
    }
    EXPECT_TRUE(core.halted()) << "core did not halt";
    return now;
}

CoreParams
narrowParams()
{
    CoreParams p;
    p.name = "test_core";
    return p;
}

TEST(OoOCore, RunsAndRetiresEverything)
{
    ScriptedSource src;
    src.addAluBlock(16);
    src.addAluBlock(16);
    src.addAluBlock(8, true);
    OoOCore core(narrowParams(), src);
    runToHalt(core);
    EXPECT_EQ(core.retiredCount(), 40u);
    EXPECT_TRUE(core.pipelineEmpty());
}

TEST(OoOCore, IndependentOpsReachRetireWidthIpc)
{
    ScriptedSource src;
    for (int i = 0; i < 40; ++i) {
        src.nextPc = 0x1000; // loop over one I-cache line: warm fetch
        src.addAluBlock(16);
    }
    src.addAluBlock(1, true);
    OoOCore core(narrowParams(), src);
    const Cycle cycles = runToHalt(core);
    const double ipc = double(core.retiredCount()) / cycles;
    // 4-wide machine on independent ALU ops: close to 4, minus ramp.
    EXPECT_GT(ipc, 3.2);
}

TEST(OoOCore, DependenceChainLimitsIpc)
{
    ScriptedSource src;
    for (int i = 0; i < 40; ++i)
        src.addAluBlock(16, false, 5); // serial chain through r5
    src.addAluBlock(1, true);
    OoOCore core(narrowParams(), src);
    const Cycle cycles = runToHalt(core);
    const double ipc = double(core.retiredCount()) / cycles;
    // One-at-a-time dependent ops: IPC ~1.
    EXPECT_LT(ipc, 1.3);
}

TEST(OoOCore, MispredictStallsFetch)
{
    // Same instruction stream, with and without a mispredicted branch.
    const auto build = [](bool mispredict) {
        auto src = std::make_unique<ScriptedSource>();
        src->addAluBlock(8);
        // A branch ending the block.
        FetchBlock b;
        b.startAddr = src->nextPc;
        DynInst br;
        br.seq = ++src->seq;
        br.pc = src->nextPc;
        br.si = src->inst({Opcode::BNE, 0, 1, 0, 4});
        br.takenControl = true;
        br.mispredicted = mispredict;
        src->nextPc += 16;
        b.insts.push_back(br);
        src->blocks.push_back(std::move(b));
        src->addAluBlock(8, true);
        return src;
    };

    auto clean = build(false);
    OoOCore coreClean(narrowParams(), *clean);
    const Cycle cleanCycles = runToHalt(coreClean);

    auto dirty = build(true);
    OoOCore coreDirty(narrowParams(), *dirty);
    const Cycle dirtyCycles = runToHalt(coreDirty);

    EXPECT_GT(dirtyCycles, cleanCycles + 3);
    EXPECT_EQ(coreDirty.stats().get("branch_mispredicts"), 1u);
}

TEST(OoOCore, FetchOnlyInstructionsNeverDispatch)
{
    ScriptedSource src;
    FetchBlock b;
    b.startAddr = 0x1000;
    for (int i = 0; i < 4; ++i) {
        DynInst d;
        d.seq = i + 1;
        d.pc = 0x1000 + 4 * i;
        d.si = src.inst({Opcode::ADDI, 1, 1, 0, 1});
        d.fetchOnly = i < 2; // first two removed pre-decode
        b.insts.push_back(d);
    }
    src.blocks.push_back(std::move(b));
    src.addAluBlock(1, true);
    OoOCore core(narrowParams(), src);
    runToHalt(core);
    EXPECT_EQ(core.stats().get("fetched"), 5u);
    EXPECT_EQ(core.stats().get("fetch_only_removed"), 2u);
    EXPECT_EQ(core.retiredCount(), 3u);
}

TEST(OoOCore, RetireHookBackPressureBlocksRetirement)
{
    ScriptedSource src;
    src.addAluBlock(4, true);
    OoOCore core(narrowParams(), src);
    int allowed = 0;
    core.onRetire = [&](const DynInst &, Cycle) {
        return allowed-- > 0; // permit one retire per grant
    };
    Cycle now = 0;
    while (!core.halted() && now < 1000) {
        allowed = 1;
        core.tick(now);
        ++now;
    }
    EXPECT_TRUE(core.halted());
    // One retirement per cycle at most under this back-pressure.
    EXPECT_GE(now, 4u);
}

TEST(OoOCore, FlushDiscardsInFlightWork)
{
    ScriptedSource src;
    for (int i = 0; i < 10; ++i)
        src.addAluBlock(16);
    OoOCore core(narrowParams(), src);
    for (Cycle now = 0; now < 6; ++now)
        core.tick(now);
    EXPECT_FALSE(core.pipelineEmpty());
    core.flush(6, 10);
    EXPECT_TRUE(core.pipelineEmpty());
    EXPECT_EQ(core.stats().get("flushes"), 1u);
}

TEST(OoOCore, IcacheMissDelaysFetch)
{
    // Two runs over many distinct lines vs the same line: the former
    // must take longer due to I-cache misses.
    ScriptedSource farSrc;
    for (int i = 0; i < 30; ++i) {
        farSrc.nextPc = 0x10000 + i * 0x10000; // distinct lines & sets
        farSrc.addAluBlock(8);
    }
    farSrc.addAluBlock(1, true);
    OoOCore farCore(narrowParams(), farSrc);
    const Cycle farCycles = runToHalt(farCore);

    ScriptedSource nearSrc;
    for (int i = 0; i < 30; ++i) {
        nearSrc.nextPc = 0x10000; // same line every time
        nearSrc.addAluBlock(8);
    }
    nearSrc.addAluBlock(1, true);
    OoOCore nearCore(narrowParams(), nearSrc);
    const Cycle nearCycles = runToHalt(nearCore);

    EXPECT_GT(farCycles, nearCycles);
    EXPECT_GT(farCore.icache().misses(), nearCore.icache().misses());
}

} // namespace
} // namespace slip
