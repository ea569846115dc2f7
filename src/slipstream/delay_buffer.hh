/**
 * @file
 * The delay buffer (paper §2.2): a FIFO through which the A-stream
 * communicates control flow and data flow outcomes to the R-stream.
 *
 * Control flow is communicated as {trace-id, ir-vec} pairs; data flow
 * as one entry per A-stream-executed instruction (operand values and
 * load/store addresses). Entries for instructions the A-stream skipped
 * carry the path information the R-stream needs to line values up with
 * instructions — exactly the structure the paper describes, organized
 * here as one packet per trace.
 *
 * Occupancy accounting matches Table 2: a control-flow buffer of 128
 * pairs and a data-flow buffer of 256 instruction entries. A full
 * buffer back-pressures the A-stream; an empty one starves R-stream
 * fetch.
 *
 * Packets travel by exchange, not by copy: push() and pop() swap the
 * caller's Packet with a buffer slot, so each hop hands back a used
 * packet whose slot vector keeps its capacity and a steady-state
 * stream of packets allocates nothing.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_DELAY_BUFFER_HH
#define SLIPSTREAM_SLIPSTREAM_DELAY_BUFFER_HH

#include <vector>

#include "common/ring.hh"
#include "common/stats.hh"
#include "func/executor.hh"
#include "isa/isa.hh"
#include "uarch/trace.hh"

namespace slip
{

/** One instruction slot of a communicated trace. */
struct PacketSlot
{
    PacketSlot() = default;

    /**
     * The walk's slot for `si` at `pc`. Initialising member by member
     * compiles to a few stores; value-initialising the whole slot
     * (what emplace_back() does) compiles to a block fill that costs
     * more than the rest of the slot's set-up.
     */
    PacketSlot(Addr pc, const StaticInst &si) : pc(pc), si(si) {}

    Addr pc = 0;
    StaticInst si;

    bool executedInA = false;  // false => removed from the A-stream
    bool fetchSkipped = false; // removed before fetch (vs pre-decode)
    uint8_t removalReason = 0; // reason:: mask, for statistics

    /**
     * The packet path's control flow through this slot: direction for
     * conditional branches and the following fetch address. For
     * removed branches this is the (presumed correct) prediction; for
     * executed ones it matches aExec.
     */
    bool pathTaken = false;
    Addr pathNextPc = 0;

    /**
     * The A-stream's outcomes (defined only when executedInA): dest
     * register value, load/store address, store value, and branch
     * outcome — everything the R-stream uses as predictions and
     * validates. The A core's instructions point here.
     */
    ExecResult aExec;
};

/** One trace's worth of delay-buffer traffic. */
struct Packet
{
    uint64_t num = 0;          // monotonically increasing packet id
    TraceId actualId;          // trace id as the A-stream executed it
    uint64_t predictedIrVec = 0; // the removal the A-stream applied
    std::vector<PacketSlot> slots;
    unsigned executedCount = 0; // slots with executedInA (data entries)
    bool endsWithHalt = false;

    /** The checkpoint field list (common/checkpoint.hh). */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar(self.num, self.actualId, self.predictedIrVec, self.slots,
           self.executedCount, self.endsWithHalt);
    }
};

/** Delay buffer configuration (paper Table 2 defaults). */
struct DelayBufferParams
{
    unsigned controlCapacity = 128; // {trace-id, ir-vec} pairs
    unsigned dataCapacity = 256;    // instruction data entries

    bool operator==(const DelayBufferParams &) const = default;
};

/** The A→R FIFO. */
class DelayBuffer
{
  public:
    explicit DelayBuffer(const DelayBufferParams &params = {});

    /** Would a packet with `executedCount` data entries fit? */
    bool canPush(unsigned executedCount) const;

    /**
     * Append `packet`. The caller gets back a consumed packet's
     * storage (stale contents) to refill.
     */
    void push(Packet &packet);

    bool empty() const { return packets.empty(); }

    /** Oldest unconsumed packet. */
    const Packet &front() const;

    /**
     * Consume the front packet (R-stream finished fetching it) into
     * `out`, whose previous storage the buffer keeps for reuse.
     */
    void pop(Packet &out);

    /** Flush everything (recovery). */
    void clear();

    unsigned controlEntries() const
    {
        return static_cast<unsigned>(packets.size());
    }
    unsigned dataEntries() const { return dataEntries_; }

    const DelayBufferParams &params() const { return params_; }
    StatGroup &stats() { return stats_; }

    /**
     * The checkpoint field list (common/checkpoint.hh). A restore
     * re-resolves the occupancy distributions if the capture had.
     */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        bool sampled = self.controlOccupancy != nullptr;
        ar(self.packets, self.dataEntries_, self.stats_, sampled);
        if constexpr (Ar::kRestoring) {
            if (sampled) {
                self.controlOccupancy =
                    &self.stats_.distribution("control_occupancy");
                self.dataOccupancy =
                    &self.stats_.distribution("data_occupancy");
            }
        }
    }

  private:
    DelayBufferParams params_;
    Ring<Packet> packets;
    unsigned dataEntries_ = 0;
    StatGroup stats_;
    StatGroup::Handle statPackets{stats_.handle("packets")};
    StatGroup::Handle statFlushes{stats_.handle("flushes")};
    // Resolved on the first push, so a buffer that never receives a
    // packet dumps no occupancy distributions.
    Distribution *controlOccupancy = nullptr;
    Distribution *dataOccupancy = nullptr;
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_DELAY_BUFFER_HH
