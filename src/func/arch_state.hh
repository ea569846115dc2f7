/**
 * @file
 * Architectural state for one SSIR context: 64 registers, a PC, and a
 * port to a data memory.
 *
 * The memory port is an interface because the three users differ:
 * the functional simulator and the R-stream use a Memory directly,
 * while the A-stream reads/writes through the recovery controller's
 * overlay (its speculative, possibly corrupt context).
 */

#ifndef SLIPSTREAM_FUNC_ARCH_STATE_HH
#define SLIPSTREAM_FUNC_ARCH_STATE_HH

#include <array>

#include "common/types.hh"

namespace slip
{

class Memory;

/** Abstract data-memory port (byte-addressed, little-endian). */
class MemPort
{
  public:
    virtual ~MemPort() = default;
    virtual uint64_t read(Addr addr, unsigned bytes) = 0;
    virtual void write(Addr addr, unsigned bytes, uint64_t value) = 0;
};

/**
 * MemPort bound directly to a Memory image, with a one-entry page
 * pointer cache: consecutive accesses to the same data page skip the
 * hash lookup. The cache is validated against Memory::epoch() so
 * clear()/moves of the image can never leave a dangling pointer.
 */
class DirectMemPort : public MemPort
{
  public:
    explicit DirectMemPort(Memory &mem)
        : mem(mem)
    {}

    uint64_t read(Addr addr, unsigned bytes) override;
    void write(Addr addr, unsigned bytes, uint64_t value) override;

  private:
    Memory &mem;
    Addr cachedPage_ = ~Addr(0);
    uint8_t *cachedData_ = nullptr;
    uint64_t cachedEpoch_ = 0;
};

/** One context's register file and PC. */
class ArchState
{
  public:
    explicit ArchState(MemPort &mem)
        : mem_(&mem)
    {
        regs.fill(0);
    }

    /** Read a register; r0 always reads 0. */
    Word
    readReg(RegIndex r) const
    {
        return r == kZeroReg ? 0 : regs[r];
    }

    /** Write a register; writes to r0 are discarded. */
    void
    writeReg(RegIndex r, Word v)
    {
        if (r != kZeroReg)
            regs[r] = v;
    }

    Addr pc() const { return pc_; }
    void setPc(Addr pc) { pc_ = pc; }

    MemPort &mem() { return *mem_; }

    /** Swap the memory port (used when rebinding an overlay). */
    void setMemPort(MemPort &mem) { mem_ = &mem; }

    /** Copy registers (not memory) from another context. */
    void
    copyRegsFrom(const ArchState &other)
    {
        regs = other.regs;
    }

    bool
    regsEqual(const ArchState &other) const
    {
        return regs == other.regs;
    }

    /**
     * The checkpoint field list (common/checkpoint.hh): registers and
     * PC. The memory port is wiring, not state.
     */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar(self.regs, self.pc_);
    }

  private:
    std::array<Word, kNumRegs> regs;
    Addr pc_ = 0;
    MemPort *mem_;
};

} // namespace slip

#endif // SLIPSTREAM_FUNC_ARCH_STATE_HH
