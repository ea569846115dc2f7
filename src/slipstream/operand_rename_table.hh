/**
 * @file
 * The IR-detector's operand rename table (paper §2.1.2, Figure 3).
 *
 * Similar to a register renamer but tracking both registers and
 * memory locations. Each entry records the most recent producer of a
 * location, the produced value, and whether the value has been
 * referenced — the state needed to detect non-modifying writes,
 * unreferenced writes, and to kill values (observe overwrites) so the
 * R-DFG back-propagation knows when an instruction's consumer set is
 * complete.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_OPERAND_RENAME_TABLE_HH
#define SLIPSTREAM_SLIPSTREAM_OPERAND_RENAME_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/flat_table.hh"
#include "common/ring.hh"
#include "common/types.hh"

namespace slip
{

/** Identifies one tracked dynamic instruction: packet + slot. */
struct OrtProducer
{
    uint64_t packetNum = 0;
    uint8_t slot = 0;

    bool operator==(const OrtProducer &other) const = default;
};

/** What happened when a write was checked against the table. */
struct OrtWriteResult
{
    /** The write produced the value already at the location. */
    bool nonModifying = false;

    /** A previous producer was killed (overwritten). */
    bool killedValid = false;
    OrtProducer killed;

    /** The killed producer's value was never referenced. */
    bool killedUnreferenced = false;
};

/** The table itself: 64 register entries + memory entries on demand. */
class OperandRenameTable
{
  public:
    OperandRenameTable();

    /**
     * Record a read of a register. Marks the entry referenced.
     * @return the current producer, or nullptr if untracked.
     */
    const OrtProducer *readReg(RegIndex r);

    /**
     * Record a read of a memory location (loads). The producer lives
     * in the memory table's slot array: the pointer is valid until
     * the next memory write or eviction.
     */
    const OrtProducer *readMem(Addr addr, unsigned bytes);

    /**
     * Check-and-update for a register write (paper's two rules):
     * a matching value is a non-modifying write (the old producer
     * stays live and the table is not updated); a differing value
     * kills the old producer, reporting whether it was unreferenced.
     */
    OrtWriteResult writeReg(RegIndex r, Word value,
                            const OrtProducer &producer);

    /**
     * Check-and-update for a memory write (stores). Producers must
     * arrive in non-decreasing packet order (the detector merges
     * traces in retirement order).
     */
    OrtWriteResult writeMem(Addr addr, unsigned bytes, Word value,
                            const OrtProducer &producer);

    /**
     * A packet is leaving the analysis scope: entries it produced can
     * no longer be killed or back-propagated into, so their producer
     * identity is dropped. The *values* stay valid — the table mirrors
     * architectural state, which scope eviction does not change — so
     * non-modifying-write detection stays stable across scope
     * boundaries (otherwise every scope-length-th instance of a
     * same-value write computes a different ir-vec and the resetting
     * confidence counter never saturates).
     *
     * Packets must leave oldest-first, every packet that wrote a
     * register or memory exactly once: the cost is then the packet's
     * own writes, not the table size.
     */
    void invalidateProducer(uint64_t packetNum);

    /** Drop all state (recovery / reuse). */
    void reset();

    size_t memEntryCount() const { return mem.size(); }

    /** The checkpoint field list (common/checkpoint.hh). */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar.sparse(
            kNumRegs, [&](size_t r) { return self.regs[r].valid; },
            [&](size_t r) { ar(self.regs[r]); });
        ar(self.mem, self.installs, self.regInstalls);
    }

  private:
    struct Entry
    {
        bool valid = false;         // value field mirrors the location
        bool producerValid = false; // producer still inside the scope
        bool ref = false;
        Word value = 0;
        OrtProducer producer;
    };

    /** A memory-table slot; empty while its entry is not valid. */
    struct MemSlot
    {
        uint64_t key = 0;
        Entry entry;

        bool occupied() const { return entry.valid; }
    };

    /** Memory-table size bound; value-only entries shed beyond it. */
    static constexpr size_t kMemEntryCap = 1 << 20;

    static uint64_t memKey(Addr addr, unsigned bytes);

    OrtWriteResult writeEntry(Entry &entry, Word value,
                              const OrtProducer &producer);

    /** One producer installed into the memory table. */
    struct Install
    {
        uint64_t packetNum;
        uint64_t key;
    };

    /** The registers one packet installed itself into. */
    struct RegInstalls
    {
        uint64_t packetNum;
        uint64_t mask; // bit r = register r
    };

    std::array<Entry, kNumRegs> regs;

    /** Memory entries are shed only by the cap sweep. */
    FlatTable<MemSlot> mem;

    /**
     * Invalidation logs: every install in order, hence sorted by
     * packet. Eviction pops its packet's records off the front and
     * clears the entries that still name that packet (a later packet
     * may have overwritten one; the cap sweep may have shed one).
     * Register installs are merged into one mask per packet.
     */
    Ring<Install> installs{256};
    Ring<RegInstalls> regInstalls{16};
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_OPERAND_RENAME_TABLE_HH
