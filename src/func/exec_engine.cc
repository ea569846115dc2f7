#include "func/exec_engine.hh"

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "assembler/program.hh"
#include "func/arch_state.hh"
#include "func/exec_semantics.hh"
#include "isa/isa.hh"
#include "isa/micro_op.hh"
#include "mem/memory.hh"

// The engine dispatches through a `&&label` table, the GNU
// labels-as-values extension (GCC and Clang).
#if !defined(__GNUC__)
#error "the functional engine needs the labels-as-values extension"
#endif

namespace slip
{

// Loop invariants of runPredecoded:
//  - `idx` is the index of the next micro-op to execute,
//  - `retired < maxInsts` is checked before every dispatch and
//    `retired` is incremented when an op is dispatched, so the HALT
//    that ends a run is counted exactly as FuncSim::step() counts it,
//  - register slot kNumRegs is the write sink for no-destination ops
//    (rdSlot never indexes r0, so regs[0] stays 0 throughout).
//
// A computed-goto interpreter's speed depends on where its handlers
// land in the binary (shifting this function by 32 bytes changed the
// golden run by ~15%). Placing it in .text.hot keeps unrelated code
// growth elsewhere in the library from moving it.
[[gnu::hot]]
EngineExit
runPredecoded(ArchState &state, Memory &mem, const Program &program,
              std::string *output, uint64_t maxInsts,
              const StoreObserver *storeObserver)
{
    const std::vector<MicroOp> &microOps = program.microOps();
    const MicroOp *const ops = microOps.data();
    const uint64_t numOps = microOps.size();
    const Addr textBase = program.textBase();

    EngineExit exitState;

    {
        const Addr pc = state.pc();
        if (!program.validPc(pc)) {
            // Entry already off the rails; the caller steps the
            // parked synthetic HALT that Program::microAt returns.
            exitState.leftText = true;
            return exitState;
        }
    }
    uint64_t idx = (state.pc() - textBase) / kInstBytes;

    Word regs[kNumRegs + 1];
    for (unsigned r = 0; r < kNumRegs; ++r)
        regs[r] = state.readReg(static_cast<RegIndex>(r));
    regs[kNumRegs] = 0;

    uint64_t retired = 0;
    bool halted = false;
    Addr wildPc = 0;

    // One-entry data-page pointer cache: consecutive accesses to the
    // same 4 KiB page (stack & arena locality dominate) skip the hash
    // lookup entirely. Loads of untouched pages read zero without
    // allocating; stores allocate through the same path the sparse
    // Memory uses, so page-count semantics are unchanged.
    constexpr Addr kOffMask = Memory::kPageBytes - 1;
    Addr curPage = ~Addr(0);
    uint8_t *curData = nullptr;

    const auto load = [&](Addr a, unsigned n) -> Word {
        if constexpr (std::endian::native == std::endian::little) {
            const size_t off = static_cast<size_t>(a & kOffMask);
            if (off + n <= Memory::kPageBytes) {
                const Addr page = a & ~kOffMask;
                if (page != curPage) {
                    uint8_t *p = mem.peekPagePtr(page);
                    if (!p)
                        return 0; // untouched pages read as zero
                    curPage = page;
                    curData = p;
                }
                Word v = 0;
                std::memcpy(&v, curData + off, n);
                return v;
            }
        }
        return mem.read(a, n); // page-cross (or big-endian host)
    };
    const auto store = [&](Addr a, unsigned n, Word v) {
        if constexpr (std::endian::native == std::endian::little) {
            const size_t off = static_cast<size_t>(a & kOffMask);
            if (off + n <= Memory::kPageBytes) {
                const Addr page = a & ~kOffMask;
                if (page != curPage) {
                    curData = mem.touchPagePtr(page);
                    curPage = page;
                }
                std::memcpy(curData + off, &v, n);
                return;
            }
        }
        mem.write(a, n, v);
    };

    const MicroOp *u = nullptr;

// Control transfer to a pre-scaled, word-aligned absolute target.
#define SLIP_TAKE(t)                                                   \
    do {                                                               \
        const uint64_t newIdx =                                        \
            (static_cast<Addr>(t) - textBase) / kInstBytes;            \
        if (newIdx >= numOps) {                                        \
            wildPc = (t);                                              \
            goto engine_wild;                                          \
        }                                                              \
        idx = newIdx;                                                  \
    } while (0)

    static const void *const kDispatch[] = {
        &&h_ADD, &&h_SUB, &&h_MUL, &&h_MULH, &&h_DIV, &&h_DIVU,
        &&h_REM, &&h_REMU, &&h_AND, &&h_OR, &&h_XOR, &&h_SLL,
        &&h_SRL, &&h_SRA, &&h_SLT, &&h_SLTU, &&h_ADDI, &&h_ANDI,
        &&h_ORI, &&h_XORI, &&h_SLLI, &&h_SRLI, &&h_SRAI, &&h_SLTI,
        &&h_SLTIU, &&h_LUI, &&h_LB, &&h_LBU, &&h_LH, &&h_LHU,
        &&h_LW, &&h_LWU, &&h_LD, &&h_SB, &&h_SH, &&h_SW, &&h_SD,
        &&h_BEQ, &&h_BNE, &&h_BLT, &&h_BGE, &&h_BLTU, &&h_BGEU,
        &&h_JAL, &&h_JALR, &&h_PUTC, &&h_PUTN, &&h_HALT, &&h_NOP,
    };
    static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                      static_cast<size_t>(Opcode::NumOpcodes),
                  "dispatch table out of sync with Opcode enum");

#define SLIP_NEXT()                                                    \
    do {                                                               \
        if (retired >= maxInsts)                                       \
            goto engine_done;                                          \
        if (idx >= numOps) {                                           \
            wildPc = textBase + idx * kInstBytes;                      \
            goto engine_wild;                                          \
        }                                                              \
        u = &ops[idx];                                                 \
        ++retired;                                                     \
        goto *kDispatch[u->handler];                                   \
    } while (0)

    SLIP_NEXT();

    // --- R-type ALU ---
    h_ADD:
        regs[u->rdSlot] = regs[u->rs1] + regs[u->rs2];
        ++idx;
        SLIP_NEXT();
    h_SUB:
        regs[u->rdSlot] = regs[u->rs1] - regs[u->rs2];
        ++idx;
        SLIP_NEXT();
    h_MUL:
        regs[u->rdSlot] = regs[u->rs1] * regs[u->rs2];
        ++idx;
        SLIP_NEXT();
    h_MULH:
        regs[u->rdSlot] = mulHigh(regs[u->rs1], regs[u->rs2]);
        ++idx;
        SLIP_NEXT();
    h_DIV:
        regs[u->rdSlot] = divSigned(regs[u->rs1], regs[u->rs2]);
        ++idx;
        SLIP_NEXT();
    h_DIVU: {
        const Word b = regs[u->rs2];
        regs[u->rdSlot] = b == 0 ? ~0ull : regs[u->rs1] / b;
        ++idx;
    }
        SLIP_NEXT();
    h_REM:
        regs[u->rdSlot] = remSigned(regs[u->rs1], regs[u->rs2]);
        ++idx;
        SLIP_NEXT();
    h_REMU: {
        const Word a = regs[u->rs1];
        const Word b = regs[u->rs2];
        regs[u->rdSlot] = b == 0 ? a : a % b;
        ++idx;
    }
        SLIP_NEXT();
    h_AND:
        regs[u->rdSlot] = regs[u->rs1] & regs[u->rs2];
        ++idx;
        SLIP_NEXT();
    h_OR:
        regs[u->rdSlot] = regs[u->rs1] | regs[u->rs2];
        ++idx;
        SLIP_NEXT();
    h_XOR:
        regs[u->rdSlot] = regs[u->rs1] ^ regs[u->rs2];
        ++idx;
        SLIP_NEXT();
    h_SLL:
        regs[u->rdSlot] = regs[u->rs1] << (regs[u->rs2] & 63);
        ++idx;
        SLIP_NEXT();
    h_SRL:
        regs[u->rdSlot] = regs[u->rs1] >> (regs[u->rs2] & 63);
        ++idx;
        SLIP_NEXT();
    h_SRA:
        regs[u->rdSlot] = static_cast<Word>(
            static_cast<SWord>(regs[u->rs1]) >> (regs[u->rs2] & 63));
        ++idx;
        SLIP_NEXT();
    h_SLT:
        regs[u->rdSlot] = static_cast<SWord>(regs[u->rs1]) <
                                  static_cast<SWord>(regs[u->rs2])
                              ? 1
                              : 0;
        ++idx;
        SLIP_NEXT();
    h_SLTU:
        regs[u->rdSlot] = regs[u->rs1] < regs[u->rs2] ? 1 : 0;
        ++idx;
        SLIP_NEXT();

    // --- I-type ALU (imm pre-transformed where noted) ---
    h_ADDI:
        regs[u->rdSlot] = regs[u->rs1] + static_cast<Word>(u->imm);
        ++idx;
        SLIP_NEXT();
    h_ANDI:
        regs[u->rdSlot] = regs[u->rs1] & static_cast<Word>(u->imm);
        ++idx;
        SLIP_NEXT();
    h_ORI:
        regs[u->rdSlot] = regs[u->rs1] | static_cast<Word>(u->imm);
        ++idx;
        SLIP_NEXT();
    h_XORI:
        regs[u->rdSlot] = regs[u->rs1] ^ static_cast<Word>(u->imm);
        ++idx;
        SLIP_NEXT();
    h_SLLI: // shift amount pre-masked at predecode
        regs[u->rdSlot] = regs[u->rs1] << u->imm;
        ++idx;
        SLIP_NEXT();
    h_SRLI:
        regs[u->rdSlot] = regs[u->rs1] >> u->imm;
        ++idx;
        SLIP_NEXT();
    h_SRAI:
        regs[u->rdSlot] = static_cast<Word>(
            static_cast<SWord>(regs[u->rs1]) >> u->imm);
        ++idx;
        SLIP_NEXT();
    h_SLTI:
        regs[u->rdSlot] = static_cast<SWord>(regs[u->rs1]) < u->imm
                              ? 1
                              : 0;
        ++idx;
        SLIP_NEXT();
    h_SLTIU:
        regs[u->rdSlot] =
            regs[u->rs1] < static_cast<Word>(u->imm) ? 1 : 0;
        ++idx;
        SLIP_NEXT();
    h_LUI: // imm pre-shifted at predecode
        regs[u->rdSlot] = static_cast<Word>(u->imm);
        ++idx;
        SLIP_NEXT();

    // --- loads ---
    h_LB: {
        const Addr a = regs[u->rs1] + static_cast<Word>(u->imm);
        regs[u->rdSlot] = static_cast<Word>(
            static_cast<SWord>(static_cast<int8_t>(load(a, 1))));
        ++idx;
    }
        SLIP_NEXT();
    h_LBU: {
        const Addr a = regs[u->rs1] + static_cast<Word>(u->imm);
        regs[u->rdSlot] = load(a, 1);
        ++idx;
    }
        SLIP_NEXT();
    h_LH: {
        const Addr a = regs[u->rs1] + static_cast<Word>(u->imm);
        regs[u->rdSlot] = static_cast<Word>(static_cast<SWord>(
            static_cast<int16_t>(load(a, 2))));
        ++idx;
    }
        SLIP_NEXT();
    h_LHU: {
        const Addr a = regs[u->rs1] + static_cast<Word>(u->imm);
        regs[u->rdSlot] = load(a, 2);
        ++idx;
    }
        SLIP_NEXT();
    h_LW: {
        const Addr a = regs[u->rs1] + static_cast<Word>(u->imm);
        regs[u->rdSlot] = static_cast<Word>(static_cast<SWord>(
            static_cast<int32_t>(load(a, 4))));
        ++idx;
    }
        SLIP_NEXT();
    h_LWU: {
        const Addr a = regs[u->rs1] + static_cast<Word>(u->imm);
        regs[u->rdSlot] = load(a, 4);
        ++idx;
    }
        SLIP_NEXT();
    h_LD: {
        const Addr a = regs[u->rs1] + static_cast<Word>(u->imm);
        regs[u->rdSlot] = load(a, 8);
        ++idx;
    }
        SLIP_NEXT();

    // --- stores (the only handlers that fire the store observer) ---
    h_SB: {
        const Addr a = regs[u->rs1] + static_cast<Word>(u->imm);
        const Word v = regs[u->rs2];
        store(a, 1, v);
        if (storeObserver)
            (*storeObserver)(textBase + idx * kInstBytes, a, 1, v);
        ++idx;
    }
        SLIP_NEXT();
    h_SH: {
        const Addr a = regs[u->rs1] + static_cast<Word>(u->imm);
        const Word v = regs[u->rs2];
        store(a, 2, v);
        if (storeObserver)
            (*storeObserver)(textBase + idx * kInstBytes, a, 2, v);
        ++idx;
    }
        SLIP_NEXT();
    h_SW: {
        const Addr a = regs[u->rs1] + static_cast<Word>(u->imm);
        const Word v = regs[u->rs2];
        store(a, 4, v);
        if (storeObserver)
            (*storeObserver)(textBase + idx * kInstBytes, a, 4, v);
        ++idx;
    }
        SLIP_NEXT();
    h_SD: {
        const Addr a = regs[u->rs1] + static_cast<Word>(u->imm);
        const Word v = regs[u->rs2];
        store(a, 8, v);
        if (storeObserver)
            (*storeObserver)(textBase + idx * kInstBytes, a, 8, v);
        ++idx;
    }
        SLIP_NEXT();

    // --- branches (targets pre-scaled at predecode) ---
    h_BEQ:
        if (regs[u->rs1] == regs[u->rs2])
            SLIP_TAKE(u->target);
        else
            ++idx;
        SLIP_NEXT();
    h_BNE:
        if (regs[u->rs1] != regs[u->rs2])
            SLIP_TAKE(u->target);
        else
            ++idx;
        SLIP_NEXT();
    h_BLT:
        if (static_cast<SWord>(regs[u->rs1]) <
            static_cast<SWord>(regs[u->rs2]))
            SLIP_TAKE(u->target);
        else
            ++idx;
        SLIP_NEXT();
    h_BGE:
        if (static_cast<SWord>(regs[u->rs1]) >=
            static_cast<SWord>(regs[u->rs2]))
            SLIP_TAKE(u->target);
        else
            ++idx;
        SLIP_NEXT();
    h_BLTU:
        if (regs[u->rs1] < regs[u->rs2])
            SLIP_TAKE(u->target);
        else
            ++idx;
        SLIP_NEXT();
    h_BGEU:
        if (regs[u->rs1] >= regs[u->rs2])
            SLIP_TAKE(u->target);
        else
            ++idx;
        SLIP_NEXT();

    // --- jumps ---
    h_JAL:
        regs[u->rdSlot] = textBase + (idx + 1) * kInstBytes;
        SLIP_TAKE(u->target);
        SLIP_NEXT();
    h_JALR: {
        // Read rs1 before writing the link (rs1 may alias rd).
        const Addr t = regs[u->rs1] + static_cast<Word>(u->imm);
        regs[u->rdSlot] = textBase + (idx + 1) * kInstBytes;
        const Addr delta = t - textBase;
        const uint64_t newIdx = delta / kInstBytes;
        if (delta % kInstBytes != 0 || newIdx >= numOps) {
            wildPc = t;
            goto engine_wild;
        }
        idx = newIdx;
    }
        SLIP_NEXT();

    // --- system ---
    h_PUTC:
        if (output)
            output->push_back(
                static_cast<char>(regs[u->rs1] & 0xff));
        ++idx;
        SLIP_NEXT();
    h_PUTN:
        if (output) {
            *output += std::to_string(
                static_cast<SWord>(regs[u->rs1]));
            output->push_back('\n');
        }
        ++idx;
        SLIP_NEXT();
    h_HALT:
        // Park on the HALT itself (idx not advanced), like
        // execute()'s nextPc = pc.
        halted = true;
        goto engine_done;
    h_NOP:
        ++idx;
        SLIP_NEXT();

engine_wild:
    exitState.leftText = true;
    state.setPc(wildPc);
    goto engine_out;

engine_done:
    state.setPc(textBase + idx * kInstBytes);

engine_out:
    exitState.retired = retired;
    exitState.halted = halted;
    for (unsigned r = 1; r < kNumRegs; ++r)
        state.writeReg(static_cast<RegIndex>(r), regs[r]);
    return exitState;

#undef SLIP_NEXT
#undef SLIP_TAKE
}

} // namespace slip
