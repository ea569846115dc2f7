/**
 * @file
 * An assembled SSIR program: encoded text image, initialized data image,
 * symbol table, and entry point — plus a predecoded instruction array so
 * simulators can fetch without re-decoding on every access.
 */

#ifndef SLIPSTREAM_ASSEMBLER_PROGRAM_HH
#define SLIPSTREAM_ASSEMBLER_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"
#include "isa/micro_op.hh"

namespace slip
{

class Memory;

/** Default memory layout for assembled programs. */
namespace layout
{
constexpr Addr kTextBase = 0x1000;
constexpr Addr kDataBase = 0x100000;   // 1 MiB
constexpr Addr kStackTop = 0x4000000;  // 64 MiB, grows down
} // namespace layout

/** A loadable, executable SSIR program image. */
class Program
{
  public:
    Program(std::vector<uint32_t> textWords, std::vector<uint8_t> dataBytes,
            Addr entryPc, std::map<std::string, Addr> symbols,
            Addr textBase = layout::kTextBase,
            Addr dataBase = layout::kDataBase);

    Addr textBase() const { return textBase_; }
    Addr dataBase() const { return dataBase_; }
    Addr entry() const { return entry_; }

    /** One past the last text address. */
    Addr textEnd() const
    {
        return textBase_ + text.size() * kInstBytes;
    }

    size_t numInsts() const { return text.size(); }

    /** True if pc points at an instruction of this program. */
    bool
    validPc(Addr pc) const
    {
        return pc >= textBase_ && pc < textEnd() &&
               (pc - textBase_) % kInstBytes == 0;
    }

    /**
     * Fetch the decoded instruction at pc. Out-of-range or misaligned
     * PCs (reachable when a corrupted A-stream context jumps wild)
     * return HALT so the stream parks instead of crashing the host.
     */
    const StaticInst &fetch(Addr pc) const;

    /** Raw encoded word at pc (panics if pc is invalid). */
    uint32_t fetchRaw(Addr pc) const;

    /**
     * Predecoded micro-op at pc; the HALT micro-op for invalid PCs
     * (mirrors fetch()). Predecode is eager — done once in the
     * constructor — so a Program shared read-only across worker
     * threads (the ProgramCache case) needs no synchronisation here.
     */
    const MicroOp &
    microAt(Addr pc) const
    {
        if (!validPc(pc))
            return microHalt_;
        return micro_[(pc - textBase_) / kInstBytes];
    }

    /** The whole predecoded text image, indexed like `text`. */
    const std::vector<MicroOp> &microOps() const { return micro_; }

    /**
     * The encoded text image exactly as assembled. Together with
     * dataBytes(), entry() and the two base addresses this is the
     * program's complete identity — programImageDigest()
     * (harness/sim_runner.hh) hashes these, not the source string, so
     * comment/whitespace edits that assemble identically still hit
     * the serve result cache.
     */
    const std::vector<uint32_t> &rawTextWords() const { return rawText; }

    /** The initialized data image (see rawTextWords()). */
    const std::vector<uint8_t> &dataBytes() const { return data; }

    /** Address of a label; fatal if absent. */
    Addr symbol(const std::string &name) const;

    bool hasSymbol(const std::string &name) const
    {
        return symbols_.count(name) != 0;
    }

    const std::map<std::string, Addr> &symbols() const { return symbols_; }

    /** Copy the data image into a simulated memory. */
    void loadInto(Memory &mem) const;

  private:
    std::vector<uint32_t> rawText;
    std::vector<StaticInst> text;
    std::vector<MicroOp> micro_;
    std::vector<uint8_t> data;
    Addr textBase_;
    Addr dataBase_;
    Addr entry_;
    std::map<std::string, Addr> symbols_;
    StaticInst haltInst;
    MicroOp microHalt_;
};

} // namespace slip

#endif // SLIPSTREAM_ASSEMBLER_PROGRAM_HH
