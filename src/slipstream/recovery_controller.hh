/**
 * @file
 * The recovery controller (paper §2.3, Figure 4).
 *
 * Maintains the addresses of memory locations that are potentially
 * corrupted in the A-stream context, sufficient to recover the
 * A-stream memory context from the R-stream's:
 *
 *  - "store 1" (undo set): stores retired by the A-stream but not yet
 *    checked/retired by the R-stream. Implemented as the A-stream's
 *    memory *overlay*: A-stream writes land in the overlay, A-stream
 *    reads see overlay bytes over the authoritative R-stream memory,
 *    and bytes are reclaimed when the companion R-stream store
 *    retires with matching data. Discarding the overlay "undoes" the
 *    stores — the paper's selective repair, made functional. The
 *    overlay is keyed by 8-byte granule (the unit recovery restores),
 *    with per-byte presence and pending-store counts inside.
 *
 *  - "store 2" (do set): stores skipped in the A-stream, tracked from
 *    R-stream retirement until the IR-detector verifies the removal
 *    was sound (the detector's trace-eviction check bounds this).
 *
 * The recovery latency model matches Table 2: a fixed pipeline-startup
 * cost, then 4 register restores per cycle followed by 4 memory
 * restores per cycle (minimum 21 cycles with 64 registers).
 */

#ifndef SLIPSTREAM_SLIPSTREAM_RECOVERY_CONTROLLER_HH
#define SLIPSTREAM_SLIPSTREAM_RECOVERY_CONTROLLER_HH

#include <unordered_map>
#include <unordered_set>

#include "common/flat_table.hh"
#include "common/stats.hh"
#include "func/arch_state.hh"
#include "mem/memory.hh"

namespace slip
{

/** Recovery latency parameters (paper Table 2). */
struct RecoveryParams
{
    Cycle startupCycles = 5;
    unsigned regRestoresPerCycle = 4;
    unsigned memRestoresPerCycle = 4;
};

/**
 * The controller doubles as the A-stream's memory port: the overlay
 * *is* the set of tracked store-undo addresses.
 */
class RecoveryController : public MemPort
{
  public:
    RecoveryController(Memory &rMem, const RecoveryParams &params = {});

    // --- MemPort: the A-stream context's view of memory ---
    uint64_t read(Addr addr, unsigned bytes) override;
    void write(Addr addr, unsigned bytes, uint64_t value) override;

    /**
     * The R-stream retired a store the A-stream also executed: the
     * undo window for these bytes closes once every outstanding
     * A-stream store to them has been matched and the overlay agrees
     * with the authoritative memory.
     */
    void onRStoreRetired(Addr addr, unsigned bytes);

    /**
     * The R-stream retired a store the A-stream skipped: track it in
     * the do set until the IR-detector verifies trace `packetNum`.
     */
    void onSkippedStoreRetired(uint64_t packetNum, Addr addr,
                               unsigned bytes);

    /** IR-detector verified the trace: drop its do-set entries. */
    void onTraceVerified(uint64_t packetNum);

    /**
     * Perform recovery: discard the overlay and the do set (the
     * A-stream context collapses onto the R-stream's), returning the
     * modeled latency for the tracked state that had to be restored.
     */
    Cycle recover();

    /** Tracked locations (undo overlay granules + do set). */
    size_t trackedAddresses() const;

    const RecoveryParams &params() const { return params_; }
    StatGroup &stats() { return stats_; }

  private:
    /**
     * One 8-byte granule; byte i is live iff bit i of `present`, and
     * a granule with no live byte is erased, so the table's size() is
     * the tracked granule count.
     */
    struct OverlayGranule
    {
        Addr key = 0;       // addr >> 3
        uint64_t value = 0; // little-endian, as in memory
        uint32_t pendingStores[8] = {}; // A-stores not yet matched by R
        uint8_t present = 0;

        bool occupied() const { return present != 0; }
    };

    /** R memory, read through a one-page pointer cache. */
    DirectMemPort rMem;
    RecoveryParams params_;
    FlatTable<OverlayGranule> overlay;

    /** Do set: 8-byte granules per unverified trace. */
    std::unordered_map<uint64_t, std::unordered_set<Addr>> doSet;
    size_t doSetSize = 0;

    StatGroup stats_;
    StatGroup::Handle statRecoveries{stats_.handle("recoveries")};
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_RECOVERY_CONTROLLER_HH
