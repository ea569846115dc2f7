/**
 * Stream-level integration tests: the A-stream / delay buffer /
 * R-stream plumbing observed through the SlipstreamProcessor's
 * component accessors while a real program runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "func/func_sim.hh"
#include "slipstream/slipstream_processor.hh"

namespace slip
{
namespace
{

const char *kProgram = R"(
.data
arr: .space 512
.text
main:
    la   a0, arr
    li   s0, 0
outer:
    li   t0, 0
inner:
    slli t1, t0, 3
    add  t1, t1, a0
    ld   t2, 0(t1)
    add  t3, t3, t2
    addi t9, zero, 5
    addi t0, t0, 1
    li   t4, 64
    blt  t0, t4, inner
    addi s0, s0, 1
    li   t4, 20
    blt  s0, t4, outer
    putn t3
    halt
)";

TEST(Streams, AStreamLeadsAndRStreamRetiresTheFullProgram)
{
    Program p = assemble(kProgram);
    FuncSim func(p);
    const FuncRunResult golden = func.run();

    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run();
    // The R-stream retires exactly the architectural stream.
    EXPECT_EQ(r.rRetired, golden.instCount);
    // The A-stream retires no more than that (it is a subset, modulo
    // the re-execution recoveries force).
    EXPECT_LE(r.aRetired,
              golden.instCount + r.irMispredicts * kMaxTraceLen);
}

TEST(Streams, DelayBufferIsDrainedAtCompletion)
{
    Program p = assemble(kProgram);
    SlipstreamProcessor proc(p);
    proc.run();
    // Everything published was consumed (or flushed at a recovery).
    EXPECT_EQ(proc.delayBuffer().controlEntries() +
                  proc.delayBuffer().dataEntries(),
              0u);
}

TEST(Streams, DelayBufferOccupancyRespectsTable2Caps)
{
    Program p = assemble(kProgram);
    SlipstreamProcessor proc(p);
    proc.run();
    const auto &ctrl = proc.delayBuffer().stats().getDistribution(
        "control_occupancy");
    const auto &data =
        proc.delayBuffer().stats().getDistribution("data_occupancy");
    EXPECT_GT(ctrl.count(), 0u);
    EXPECT_LE(ctrl.max(), 128u);
    EXPECT_LE(data.max(), 256u);
}

TEST(Streams, PacketsFlowInOrder)
{
    Program p = assemble(kProgram);
    SlipstreamProcessor proc(p);
    uint64_t lastPacket = 0;
    bool ordered = true;
    proc.rSource().onPacketRetired =
        [&](const Packet &packet, const std::vector<ExecResult> &) {
            if (packet.num < lastPacket)
                ordered = false;
            lastPacket = packet.num;
        };
    proc.run();
    EXPECT_TRUE(ordered);
    EXPECT_GT(lastPacket, 0u);
}

TEST(Streams, BothContextsProduceIdenticalOutputSpeculatively)
{
    // The A-stream's own (speculative) output should match the
    // R-stream's when no divergence corrupted it.
    Program p = assemble(kProgram);
    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run();
    if (r.irMispredicts == 0) {
        EXPECT_EQ(proc.aSource().output(), r.output);
    }
}

TEST(Streams, RecoveryLeavesContextsConverged)
{
    // Force divergence with an IR-predictor that removes everything;
    // after the run the A-stream register state must match the
    // R-stream's (both parked at HALT).
    struct RemoveAll : IRPredictor
    {
        using IRPredictor::IRPredictor;
        std::optional<RemovalPlan>
        lookup(const PathHistory &,
               const TraceId &predicted) const override
        {
            RemovalPlan plan;
            plan.irVec = (uint64_t(1) << predicted.length) - 1;
            plan.reasons.assign(predicted.length, reason::kWW);
            return plan;
        }
    };

    Program p = assemble(kProgram);
    SlipstreamParams params;
    SlipstreamProcessor proc(p, params, std::make_unique<RemoveAll>());
    const SlipstreamRunResult r = proc.run();
    EXPECT_TRUE(r.halted);
    EXPECT_GT(r.irMispredicts, 0u);
    FuncSim func(p);
    EXPECT_EQ(r.output, func.run().output);
}

TEST(Streams, WalkedCountTracksRStream)
{
    Program p = assemble(kProgram);
    SlipstreamProcessor proc(p);
    const SlipstreamRunResult r = proc.run();
    // The R-stream walker processed at least every retired slot.
    EXPECT_GE(proc.rSource().walkedCount(), r.rRetired);
}

TEST(Streams, RetireRecordsSkipPacketsCutByRecovery)
{
    // Eight straight-line packets of eight instructions: with fetch
    // width 4, each walks into two blocks. Packet 0's second block is
    // dropped by recover() before it is fetched, so packet 0 can never
    // complete; every later packet must still fire exactly once, in
    // order.
    constexpr unsigned kPackets = 8;
    constexpr unsigned kSlots = 8;
    std::string src = ".text\nmain:\n";
    for (unsigned i = 0; i < kPackets * kSlots; ++i)
        src += "    addi t0, t0, 1\n";
    src += "    halt\n";
    const Program p = assemble(src);
    Memory rMem;
    p.loadInto(rMem);

    DelayBuffer db;
    for (uint64_t n = 0; n < kPackets; ++n) {
        Packet packet;
        packet.num = n;
        packet.actualId.startPc = p.entry() + n * kSlots * kInstBytes;
        packet.actualId.length = kSlots;
        for (unsigned i = 0; i < kSlots; ++i) {
            PacketSlot slot;
            slot.pc = packet.actualId.startPc + i * kInstBytes;
            slot.si = p.fetch(slot.pc);
            slot.pathNextPc = slot.pc + kInstBytes;
            packet.slots.push_back(slot);
        }
        db.push(packet);
    }

    RStreamSource rs(p, rMem, db, 4);
    std::vector<uint64_t> fired;
    rs.onPacketRetired = [&](const Packet &packet,
                             const std::vector<ExecResult> &rExec) {
        EXPECT_EQ(rExec.size(), packet.slots.size());
        fired.push_back(packet.num);
    };

    FetchBlock first;
    ASSERT_TRUE(rs.nextBlock(first));
    ASSERT_EQ(first.insts.size(), 4u);
    EXPECT_EQ(first.insts.front().packetSeq, 0u);
    rs.recover(); // drops packet 0's unfetched second block

    // Retire in program order: the fetched half of packet 0, then
    // everything fetched after the recovery.
    for (const DynInst &d : first.insts)
        rs.notifyRetire(d);
    FetchBlock block;
    while (rs.nextBlock(block))
        for (const DynInst &d : block.insts)
            rs.notifyRetire(d);

    std::vector<uint64_t> expected;
    for (uint64_t n = 1; n < kPackets; ++n)
        expected.push_back(n);
    EXPECT_EQ(fired, expected);
}

} // namespace
} // namespace slip
