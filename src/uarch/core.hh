/**
 * @file
 * Cycle-based out-of-order superscalar core timing model.
 *
 * The model is execution-driven in the style the paper describes: the
 * fetch source supplies dynamic instructions with their *real* (already
 * computed, possibly architecturally wrong for the A-stream) outcomes,
 * and this core charges time — fetch bandwidth and I-cache behaviour,
 * a front-end pipeline, ROB occupancy, dispatch/issue/retire widths,
 * operand dependences through a register scoreboard, perfect memory
 * disambiguation with store-to-load forwarding, D-cache access latency,
 * function-unit latencies (MIPS R10000-flavored), and branch
 * misprediction redirect penalties.
 *
 * Wrong-path instructions are not simulated; a misprediction instead
 * blocks fetch from the mispredicted branch until it resolves, plus a
 * redirect penalty — the standard approximation in trace-driven
 * timing models.
 */

#ifndef SLIPSTREAM_UARCH_CORE_HH
#define SLIPSTREAM_UARCH_CORE_HH

#include <array>
#include <functional>
#include <vector>

#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "func/executor.hh"
#include "isa/isa.hh"
#include "mem/cache.hh"

namespace slip
{

/**
 * One dynamic instruction flowing through a core: the timing record.
 * It holds what the core, the block slicer and the retire hooks read;
 * the instruction's full functional outcome stays where its source's
 * walk wrote it, behind `exec`.
 */
struct DynInst
{
    InstSeqNum seq = 0;
    Addr pc = 0;

    /** The instruction at `pc`, in the program text. */
    const StaticInst *si = nullptr;

    /**
     * The precomputed functional outcome, owned by the source that
     * walked the instruction: an A-stream packet slot's `aExec`, an
     * R-stream retire record's `rExec`, or a TraceFetchSource
     * training record. It stays valid at least until the instruction's
     * retire hook returns. Null for fetch-only instructions, which
     * never execute.
     */
    const ExecResult *exec = nullptr;

    // Dispatch fields, copied from the outcome by setOutcome().
    Addr memAddr = 0;

    /** Identifies the packet (trace) this instruction belongs to. */
    uint64_t packetSeq = 0;

    uint8_t memBytes = 0;
    RegIndex destReg = kNoReg;
    uint8_t packetSlot = 0;

    /** Removal reason mask (slipstream statistics; 0 = not removed). */
    uint8_t removalReason = 0;

    bool wroteReg : 1 = false;

    /** Control transfer that was taken: ends its fetch block. */
    bool takenControl : 1 = false;

    /**
     * Front-end direction/target was wrong; fetch stalls after this
     * instruction until it resolves (conventional misprediction,
     * A-stream-detectable in slipstream terms).
     */
    bool mispredicted : 1 = false;

    /**
     * R-stream only: source operands arrive from the delay buffer, so
     * the instruction issues without waiting on register dependences.
     */
    bool valuePredicted : 1 = false;

    /**
     * A-stream only: fetched (consumes fetch bandwidth) but removed
     * before decode by the ir-vec; never dispatched.
     */
    bool fetchOnly : 1 = false;

    /**
     * R-stream only: this instruction exposed an IR-misprediction (or
     * transient fault); the slipstream processor initiates recovery
     * when it retires.
     */
    bool triggersRecovery : 1 = false;

    /** Point `exec` at `outcome` and copy the fields dispatch reads. */
    void
    setOutcome(const ExecResult &outcome)
    {
        exec = &outcome;
        memAddr = outcome.memAddr;
        memBytes = static_cast<uint8_t>(outcome.memBytes);
        destReg = outcome.destReg;
        wroteReg = outcome.wroteReg;
        takenControl = outcome.isControl && outcome.taken;
    }

    /**
     * The checkpoint field list (common/checkpoint.hh). `si` and
     * `exec` point into the program and the source's records, so
     * they are not stored: a restore leaves them null, and the
     * instruction's source re-derives them from `pc` and
     * (`packetSeq`, `packetSlot`).
     */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        uint8_t flags = uint8_t(
            self.wroteReg | self.takenControl << 1 |
            self.mispredicted << 2 | self.valuePredicted << 3 |
            self.fetchOnly << 4 | self.triggersRecovery << 5);
        ar(self.seq, self.pc, self.memAddr, self.packetSeq, self.memBytes,
           self.destReg, self.packetSlot, self.removalReason, flags);
        if constexpr (Ar::kRestoring) {
            self.si = nullptr;
            self.exec = nullptr;
            self.wroteReg = flags & 1;
            self.takenControl = flags >> 1 & 1;
            self.mispredicted = flags >> 2 & 1;
            self.valuePredicted = flags >> 3 & 1;
            self.fetchOnly = flags >> 4 & 1;
            self.triggersRecovery = flags >> 5 & 1;
        }
    }
};

/** A fetch block: consecutive-on-path instructions, one per cycle. */
struct FetchBlock
{
    Addr startAddr = 0;
    std::vector<DynInst> insts;

    /** The checkpoint field list (common/checkpoint.hh). */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar(self.startAddr, self.insts);
    }
};

/**
 * Supplies the core's dynamic instruction stream, one fetch block at a
 * time. Blocks end at taken control flow, at I-cache line capacity,
 * and (for the A-stream) at instruction-removal skip points.
 */
class FetchSource
{
  public:
    virtual ~FetchSource() = default;

    /**
     * Produce the next fetch block.
     * @return false if nothing can be supplied this cycle (source
     *         exhausted or stalled, e.g. delay buffer empty).
     */
    virtual bool nextBlock(FetchBlock &block) = 0;

    /** True once the source will never supply instructions again. */
    virtual bool exhausted() const = 0;
};

/** Core configuration (defaults = the paper's Table 2 SS(64x4)). */
struct CoreParams
{
    std::string name = "core";
    unsigned fetchWidth = 16;     // one full I-cache line per cycle
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 4;
    unsigned retireWidth = 4;
    unsigned robSize = 64;
    unsigned fetchToDispatch = 4; // front-end depth (cycles)
    unsigned redirectPenalty = 2; // extra bubbles after branch resolve
    unsigned fetchBufferCap = 48;
    Cycle intMultLat = 5;         // MIPS R10000 flavor
    Cycle intDivLat = 34;
    CacheParams icache{"icache", 64 * 1024, 4, 64, 1, 12};
    CacheParams dcache{"dcache", 64 * 1024, 4, 64, 2, 14};

    /** Convenience: widen to the paper's SS(128x8) configuration. */
    static CoreParams
    wide8()
    {
        CoreParams p;
        p.name = "core8";
        p.dispatchWidth = p.issueWidth = p.retireWidth = 8;
        p.robSize = 128;
        return p;
    }

    bool operator==(const CoreParams &) const = default;
};

/** The out-of-order core. */
class OoOCore
{
  public:
    OoOCore(const CoreParams &params, FetchSource &source);

    /** Advance one cycle: retire, dispatch/schedule, fetch. */
    void tick(Cycle now);

    /** True once HALT has retired. */
    bool halted() const { return halted_; }

    /** In-flight work (ROB plus fetch buffer). */
    bool pipelineEmpty() const { return window.empty(); }

    /**
     * Full pipeline flush (slipstream recovery): discards in-flight
     * instructions and clears scoreboards. Fetch resumes when `now`
     * reaches resumeFetchAt.
     */
    void flush(Cycle now, Cycle resumeFetchAt);

    /** Freeze fetch until the given cycle (recovery stall). */
    void stallFetchUntil(Cycle cycle) { fetchResumeAt = cycle; }

    /**
     * Retire hook: invoked for every retiring instruction, in program
     * order. Returning false blocks retirement (back-pressure) this
     * cycle; the same instruction is offered again next cycle.
     */
    std::function<bool(const DynInst &, Cycle)> onRetire;

    const CoreParams &params() const { return params_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    Cache &icache() { return icache_; }
    Cache &dcache() { return dcache_; }

    uint64_t retiredCount() const { return retired; }
    Cycle lastRetireCycle() const { return lastRetire; }

    // Hot-counter accessors (no StatGroup string lookup).
    uint64_t retiredCondBranches() const { return numRetiredCondBranches; }
    uint64_t branchMispredicts() const { return numBranchMispredicts; }

    /**
     * Call fn(DynInst &) on every in-flight instruction, oldest first:
     * after a restore, the fetch source re-links each one to the
     * program and to its outcome.
     */
    template <typename Fn>
    void
    forEachInflight(Fn &&fn)
    {
        for (size_t i = 0; i < window.size(); ++i)
            fn(window[i].d);
    }

    /**
     * The checkpoint field list (common/checkpoint.hh). The issue-slot
     * ring keeps only slots at or after the capture cycle: dispatch
     * never claims an earlier one, and a slot whose tag is stale reads
     * as free whatever it held.
     */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar(self.window, self.robCount, self.regReady, self.storeReady);
        ar.sparse(
            kRingSize,
            [&](size_t i) {
                return self.slotsTag[i] != ~Cycle(0) &&
                       self.slotsTag[i] >= ar.cycle();
            },
            [&](size_t i) { ar(self.slotsTag[i], self.slotsUsed[i]); });
        ar(self.fetchResumeAt, self.fetchBlockedOnBranch,
           self.blockedBranchSeq, self.halted_, self.retired,
           self.lastRetire, self.numRetiredCondBranches,
           self.numBranchMispredicts, self.numDispatched, self.numFetched,
           self.numFetchOnlyRemoved, self.numFlushes, self.stats_,
           self.icache_, self.dcache_);
    }

  private:
    struct InflightEntry
    {
        DynInst d;
        Cycle at; // fetch buffer: earliest dispatch; ROB: completion

        template <typename Self, typename Ar>
        static void
        checkpointFields(Self &self, Ar &ar)
        {
            ar(self.d, self.at);
        }
    };
    static_assert(sizeof(InflightEntry) <= 64,
                  "a window entry outgrew a cache line");

    /**
     * Store-to-load forwarding times by 8-byte granule: the completion
     * cycle of the youngest dispatched store to each granule. Open
     * addressing with linear probing over a table sized from robSize.
     * Only a time later than the current cycle can delay a load, and
     * such a store has not completed, so it is still in the ROB: at
     * most 2 x robSize granules are live. An entry whose time has
     * passed is dead and its slot is reused; a sweep drops the dead
     * entries when half the slots are taken.
     */
    class StoreTimes
    {
      public:
        explicit StoreTimes(unsigned robSize);

        /** Completion time of the youngest store to `granule`, or 0. */
        Cycle find(Addr granule) const;

        /** The store completing at `readyAt` writes `granule`. */
        void set(Addr granule, Cycle readyAt, Cycle now);

        void clear();

        /** Occupied slots where they sit, so probes replay exactly. */
        template <typename Self, typename Ar>
        static void
        checkpointFields(Self &self, Ar &ar)
        {
            ar(self.used);
            ar.sparse(
                self.slots.size(),
                [&](size_t i) { return self.slots[i].readyAt != 0; },
                [&](size_t i) { ar(self.slots[i]); });
        }

      private:
        struct Slot
        {
            Addr granule = 0;
            Cycle readyAt = 0; // 0 = empty: no store completes at 0
        };

        size_t home(Addr granule) const;
        void sweep(Cycle now);

        std::vector<Slot> slots;
        std::vector<Slot> live; // the live entries, during a sweep
        size_t mask;
        unsigned shift;
        size_t used = 0;
        size_t maxLive;
    };

    void doRetire(Cycle now);
    void doDispatch(Cycle now);
    void doFetch(Cycle now);

    /** Earliest cycle >= earliest with a free issue slot; claims it. */
    Cycle claimIssueSlot(Cycle earliest);

    Cycle execLatency(const StaticInst &si) const;

    CoreParams params_;
    FetchSource &source;
    Cache icache_;
    Cache dcache_;

    /**
     * Every in-flight instruction in program order, in one ring sized
     * robSize + fetchBufferCap: the first robCount entries are the
     * ROB, the rest the fetch buffer. Dispatch moves the boundary;
     * the instruction itself stays in place until it retires.
     */
    Ring<InflightEntry> window;
    unsigned robCount = 0;

    /** The block the source fills each fetch; its storage is reused. */
    FetchBlock fetchBlock;

    std::array<Cycle, kNumRegs> regReady{};
    StoreTimes storeReady; // key: addr >> 3

    // Issue bandwidth ring: slots used per cycle.
    static constexpr size_t kRingSize = 1 << 14;
    std::vector<uint8_t> slotsUsed;
    std::vector<Cycle> slotsTag;

    Cycle fetchResumeAt = 0;
    bool fetchBlockedOnBranch = false;
    InstSeqNum blockedBranchSeq = 0;

    bool halted_ = false;
    uint64_t retired = 0;
    Cycle lastRetire = 0;

    // Per-instruction counters: plain integers on the hot path,
    // linked into stats_ so get()/dump() still see them by name.
    uint64_t numRetiredCondBranches = 0;
    uint64_t numBranchMispredicts = 0;
    uint64_t numDispatched = 0;
    uint64_t numFetched = 0;
    uint64_t numFetchOnlyRemoved = 0;
    uint64_t numFlushes = 0;

    StatGroup stats_;
};

} // namespace slip

#endif // SLIPSTREAM_UARCH_CORE_HH
