/**
 * @file
 * Shared vocabulary for instruction removal: reason categories (the
 * paper's Figure 8 breakdown) and the per-trace removal plan the
 * IR-predictor hands to the A-stream fetch unit.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_REMOVAL_HH
#define SLIPSTREAM_SLIPSTREAM_REMOVAL_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "common/types.hh"
#include "uarch/trace.hh"

namespace slip
{

/**
 * Why an instruction was selected for removal. An instruction can
 * carry several reasons; back-propagated (P:) instructions inherit the
 * union of their consumers' reasons, as in the paper's accounting.
 */
namespace reason
{
constexpr uint8_t kBR = 1;   // branch instruction
constexpr uint8_t kWW = 2;   // unreferenced write (write-after-write)
constexpr uint8_t kSV = 4;   // non-modifying (same-value) write
constexpr uint8_t kProp = 8; // selected via R-DFG back-propagation
} // namespace reason

/** "BR", "SV", "P:SV,BR", ... matching the paper's Figure 8 legend. */
std::string reasonName(uint8_t mask);

/** Number of distinct reason masks (kProp|kSV|kWW|kBR span 4 bits). */
constexpr unsigned kNumReasonMasks = 16;

/**
 * Per-reason-mask removal tallies, indexed by the reason mask itself.
 * This is the hot-path representation: the per-retired-instruction
 * accounting is a single array increment; names are derived only when
 * results are assembled.
 */
using ReasonCounts = std::array<uint64_t, kNumReasonMasks>;

/** Expand tallies to the paper's named categories (zeros omitted). */
std::map<std::string, uint64_t> reasonCountsByName(const ReasonCounts &c);

/** Most slots one trace has: the ir-vec is 64 bits wide. */
constexpr unsigned kMaxPlanSlots = kTraceLenLimit;

/**
 * Per-slot reason masks of one trace, 4 bits a slot, held inline so a
 * plan copies as plain bytes. Slots never set read as no reason.
 */
class SlotReasons
{
  public:
    uint8_t
    operator[](unsigned slot) const
    {
        return static_cast<uint8_t>(words[slot / 16] >> shift(slot) & 0xf);
    }

    void
    set(unsigned slot, uint8_t mask)
    {
        uint64_t &w = words[slot / 16];
        w = (w & ~(uint64_t(0xf) << shift(slot))) |
            uint64_t(mask & 0xf) << shift(slot);
    }

    /** Slots [0, n) take `mask` and the rest none (vector::assign). */
    void
    assign(unsigned n, uint8_t mask)
    {
        words = {};
        for (unsigned slot = 0; slot < n; ++slot)
            set(slot, mask);
    }

    bool operator==(const SlotReasons &other) const = default;

  private:
    static unsigned shift(unsigned slot) { return 4 * (slot % 16); }

    std::array<uint64_t, kMaxPlanSlots / 16> words{};
};

/**
 * A removal plan for one trace: which slots the A-stream skips, and
 * why (the reasons ride along purely for statistics).
 */
struct RemovalPlan
{
    uint64_t irVec = 0; // bit i set => slot i removed
    SlotReasons reasons;

    bool
    removes(unsigned slot) const
    {
        return ((irVec >> slot) & 1) != 0;
    }

    uint8_t
    reasonAt(unsigned slot) const
    {
        return slot < kMaxPlanSlots ? reasons[slot] : 0;
    }

    unsigned removedCount() const { return popCount(irVec); }
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_REMOVAL_HH
