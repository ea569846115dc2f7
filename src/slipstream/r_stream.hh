/**
 * @file
 * The R-stream (redundant stream) fetch source: the full program,
 * fetching along delay-buffer control flow and using communicated
 * values as predictions (paper §2.2, §2.3).
 *
 * The R-stream executes *every* instruction on the authoritative
 * memory image and validates the A-stream:
 *  - redundantly executed instructions compare values, addresses, and
 *    branch outcomes against the delay-buffer entries;
 *  - instructions the A-stream removed have their presumed branch
 *    outcomes checked against the R-stream's computed ones.
 * Any disagreement is an IR-misprediction (or a transient fault —
 * indistinguishable by design): the offending instruction is marked
 * and the slipstream processor initiates recovery when it retires.
 *
 * Timing: redundantly executed instructions issue without register-
 * dependence waits (source operands arrive from the delay buffer);
 * removed instructions wait on real dependences. R-stream fetch
 * starves when the delay buffer is empty.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_R_STREAM_HH
#define SLIPSTREAM_SLIPSTREAM_R_STREAM_HH

#include <functional>

#include "assembler/program.hh"
#include "common/ring.hh"
#include "func/arch_state.hh"
#include "mem/memory.hh"
#include "slipstream/delay_buffer.hh"
#include "slipstream/fault_injector.hh"
#include "uarch/fetch_source.hh"

namespace slip
{

/** Most coincident faults applied at one dynamic instruction. */
constexpr unsigned kMaxCoincidentFaults = 8;

/** The R-stream front end + the authoritative context. */
class RStreamSource : public FetchSource
{
  public:
    RStreamSource(const Program &program, Memory &rMem,
                  DelayBuffer &delayBuffer, unsigned fetchWidth = 16);

    bool nextBlock(FetchBlock &block) override;
    bool exhausted() const override;

    /**
     * R-stream core retire notification. Drives packet-completion
     * bookkeeping; fires onPacketRetired for fully validated traces.
     *
     * Records are matched at the front of a walk-ordered ring: the
     * core retires in program order and packet numbers only grow, so
     * a front record older than `d`'s packet can never complete (its
     * unfetched blocks went to recover()) and is dropped unfired.
     *
     * A record owns the outcomes its instructions' `exec` point at,
     * so dropping it releases them: a retire observer reads `d.exec`
     * before calling this.
     */
    void notifyRetire(const DynInst &d);

    /**
     * Resume after recovery: the R-stream context was never wrong, so
     * this only clears the divergence latch and sliced blocks.
     */
    void recover();

    /** A trace fully retired and validated (train + detect on it). */
    std::function<void(const Packet &, const std::vector<ExecResult> &)>
        onPacketRetired;

    /** Optional transient-fault injection. */
    FaultInjector *faultInjector = nullptr;

    ArchState &archState() { return state_; }
    const std::string &output() const { return output_; }
    bool awaitingRecovery() const { return awaitingRecovery_; }
    StatGroup &stats() { return stats_; }

    /** Dynamic R-stream instructions walked (fault-index space). */
    uint64_t walkedCount() const { return walked; }

    /**
     * Re-link a restored instruction of this stream to the program
     * and to the retire record its outcome lives in.
     */
    void relink(DynInst &d) const;

    /**
     * The checkpoint field list (common/checkpoint.hh). A restore
     * re-links the queued fetch blocks; the core's in-flight
     * instructions are re-linked through relink().
     */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar(self.state_, self.output_, self.slicer, self.records,
           self.nextSeq, self.walked, self.haltWalked,
           self.awaitingRecovery_, self.stats_);
        if constexpr (Ar::kRestoring)
            self.slicer.forEachInst([&](DynInst &d) { self.relink(d); });
    }

  private:
    /**
     * One walked packet and the R-stream's outcome for each slot it
     * walked. `rExec` is reserved to the packet's length before the
     * walk, and the ring moves records only by swap, so the
     * instructions' `exec` pointers into it stay valid until the
     * record is reused.
     */
    struct PacketRecord
    {
        Packet packet;
        std::vector<ExecResult> rExec;
        unsigned emitted = 0;
        unsigned retires = 0;
        bool divergent = false;

        template <typename Self, typename Ar>
        static void
        checkpointFields(Self &self, Ar &ar)
        {
            ar(self.packet, self.rExec, self.emitted, self.retires,
               self.divergent);
        }
    };

    void walkPacket();

    /** Apply one fired fault plan at the current walk position. */
    void applyFault(FaultRecord &rec, PacketSlot &slot,
                    const StaticInst &si, const ExecResult &exec,
                    ExecResult &rView, Addr rPc, bool pcDiverged);

    /** Compare one redundantly executed slot; true on disagreement. */
    bool slotMismatch(const PacketSlot &slot, const ExecResult &rExec,
                      const ExecResult &aView) const;

    const Program &program;
    DirectMemPort port;
    ArchState state_;
    DelayBuffer &delayBuffer;

    std::string output_;
    BlockSlicer slicer;
    // Walked packets awaiting retirement, oldest first. Slots are
    // recycled: a walk pops the delay buffer into the slot's packet,
    // handing the buffer the slot's old storage.
    Ring<PacketRecord> records;

    InstSeqNum nextSeq = 1;
    uint64_t walked = 0;
    bool haltWalked = false;
    bool awaitingRecovery_ = false;

    StatGroup stats_;
    StatGroup::Handle statStallRecovery{stats_.handle("stall_recovery")};
    StatGroup::Handle statStallHalted{stats_.handle("stall_halted")};
    StatGroup::Handle statStallEmptyBuffer{
        stats_.handle("stall_empty_buffer")};
    StatGroup::Handle statDivergences{stats_.handle("divergences")};
    StatGroup::Handle statPacketsWalked{stats_.handle("packets_walked")};
    StatGroup::Handle statRecoveries{stats_.handle("recoveries")};
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_R_STREAM_HH
