#include "func/executor.hh"

#include <memory>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "func/exec_semantics.hh"

namespace slip
{

ExecResult
execute(ArchState &state, const StaticInst &inst, std::string *output)
{
    ExecResult res;
    const Addr pc = state.pc();
    res.nextPc = pc + kInstBytes;

    const Word a = state.readReg(inst.rs1);
    const Word b = state.readReg(inst.rs2);
    const Word imm = static_cast<Word>(inst.imm);

    const auto setDest = [&](Word v) {
        res.destReg = inst.destReg();
        res.destValue = v;
        if (res.destReg != kNoReg) {
            res.wroteReg = true;
            state.writeReg(res.destReg, v);
        }
    };

    const auto condBranch = [&](bool cond) {
        res.isControl = true;
        res.taken = cond;
        res.target = pc + static_cast<int64_t>(inst.imm) * kInstBytes;
        if (cond)
            res.nextPc = res.target;
    };

    switch (inst.op) {
      case Opcode::ADD: setDest(a + b); break;
      case Opcode::SUB: setDest(a - b); break;
      case Opcode::MUL: setDest(a * b); break;
      case Opcode::MULH: setDest(mulHigh(a, b)); break;
      case Opcode::DIV: setDest(divSigned(a, b)); break;
      case Opcode::DIVU: setDest(b == 0 ? ~0ull : a / b); break;
      case Opcode::REM: setDest(remSigned(a, b)); break;
      case Opcode::REMU: setDest(b == 0 ? a : a % b); break;
      case Opcode::AND: setDest(a & b); break;
      case Opcode::OR: setDest(a | b); break;
      case Opcode::XOR: setDest(a ^ b); break;
      case Opcode::SLL: setDest(a << (b & 63)); break;
      case Opcode::SRL: setDest(a >> (b & 63)); break;
      case Opcode::SRA:
        setDest(static_cast<Word>(static_cast<SWord>(a) >> (b & 63)));
        break;
      case Opcode::SLT:
        setDest(static_cast<SWord>(a) < static_cast<SWord>(b) ? 1 : 0);
        break;
      case Opcode::SLTU: setDest(a < b ? 1 : 0); break;

      case Opcode::ADDI: setDest(a + imm); break;
      case Opcode::ANDI: setDest(a & imm); break;
      case Opcode::ORI: setDest(a | imm); break;
      case Opcode::XORI: setDest(a ^ imm); break;
      case Opcode::SLLI: setDest(a << (imm & 63)); break;
      case Opcode::SRLI: setDest(a >> (imm & 63)); break;
      case Opcode::SRAI:
        setDest(static_cast<Word>(static_cast<SWord>(a) >> (imm & 63)));
        break;
      case Opcode::SLTI:
        setDest(static_cast<SWord>(a) < static_cast<SWord>(imm) ? 1 : 0);
        break;
      case Opcode::SLTIU: setDest(a < imm ? 1 : 0); break;
      case Opcode::LUI:
        setDest(static_cast<Word>(inst.imm) << 12);
        break;

      case Opcode::LB:
      case Opcode::LBU:
      case Opcode::LH:
      case Opcode::LHU:
      case Opcode::LW:
      case Opcode::LWU:
      case Opcode::LD: {
        res.isMem = true;
        res.memBytes = inst.memBytes();
        res.memAddr = a + imm;
        Word v = state.mem().read(res.memAddr, res.memBytes);
        if (opInfo(inst.op).loadSigned)
            v = static_cast<Word>(sext(v, res.memBytes * 8));
        res.loadedValue = v;
        setDest(v);
        break;
      }

      case Opcode::SB:
      case Opcode::SH:
      case Opcode::SW:
      case Opcode::SD: {
        res.isMem = true;
        res.memBytes = inst.memBytes();
        res.memAddr = a + imm;
        res.storeValue = b;
        state.mem().write(res.memAddr, res.memBytes, b);
        break;
      }

      case Opcode::BEQ: condBranch(a == b); break;
      case Opcode::BNE: condBranch(a != b); break;
      case Opcode::BLT:
        condBranch(static_cast<SWord>(a) < static_cast<SWord>(b));
        break;
      case Opcode::BGE:
        condBranch(static_cast<SWord>(a) >= static_cast<SWord>(b));
        break;
      case Opcode::BLTU: condBranch(a < b); break;
      case Opcode::BGEU: condBranch(a >= b); break;

      case Opcode::JAL:
        res.isControl = true;
        res.taken = true;
        res.target = pc + static_cast<int64_t>(inst.imm) * kInstBytes;
        setDest(pc + kInstBytes);
        res.nextPc = res.target;
        break;

      case Opcode::JALR:
        res.isControl = true;
        res.taken = true;
        res.target = a + imm;
        setDest(pc + kInstBytes);
        res.nextPc = res.target;
        break;

      case Opcode::PUTC:
        if (output)
            output->push_back(static_cast<char>(a & 0xff));
        break;

      case Opcode::PUTN:
        if (output) {
            *output += std::to_string(static_cast<SWord>(a));
            output->push_back('\n');
        }
        break;

      case Opcode::HALT:
        res.halted = true;
        res.nextPc = pc; // park
        break;

      case Opcode::NOP:
        break;

      case Opcode::NumOpcodes:
        SLIP_PANIC("executed NumOpcodes sentinel");
    }

    state.setPc(res.nextPc);
    return res;
}

void
executeMicro(ArchState &state, const MicroOp &u, std::string *output,
             ExecResult &res)
{
    // Value-initialize in place: `res = ExecResult{}` builds a stack
    // temporary and copies it with wide loads that overlap the
    // temporary's narrow stores, which stalls store forwarding.
    std::construct_at(&res);
    const Addr pc = state.pc();
    res.nextPc = pc + kInstBytes;

    const Word a = state.readReg(u.rs1);
    const Word b = state.readReg(u.rs2);
    const Word imm = static_cast<Word>(u.imm);

    const auto setDest = [&](Word v) {
        res.destReg = u.rd;
        res.destValue = v;
        if (u.rd != kNoReg) {
            res.wroteReg = true;
            state.writeReg(u.rd, v);
        }
    };

    const auto condBranch = [&](bool cond) {
        res.isControl = true;
        res.taken = cond;
        res.target = u.target;
        if (cond)
            res.nextPc = res.target;
    };

    switch (static_cast<Opcode>(u.handler)) {
      case Opcode::ADD: setDest(a + b); break;
      case Opcode::SUB: setDest(a - b); break;
      case Opcode::MUL: setDest(a * b); break;
      case Opcode::MULH: setDest(mulHigh(a, b)); break;
      case Opcode::DIV: setDest(divSigned(a, b)); break;
      case Opcode::DIVU: setDest(b == 0 ? ~0ull : a / b); break;
      case Opcode::REM: setDest(remSigned(a, b)); break;
      case Opcode::REMU: setDest(b == 0 ? a : a % b); break;
      case Opcode::AND: setDest(a & b); break;
      case Opcode::OR: setDest(a | b); break;
      case Opcode::XOR: setDest(a ^ b); break;
      case Opcode::SLL: setDest(a << (b & 63)); break;
      case Opcode::SRL: setDest(a >> (b & 63)); break;
      case Opcode::SRA:
        setDest(static_cast<Word>(static_cast<SWord>(a) >> (b & 63)));
        break;
      case Opcode::SLT:
        setDest(static_cast<SWord>(a) < static_cast<SWord>(b) ? 1 : 0);
        break;
      case Opcode::SLTU: setDest(a < b ? 1 : 0); break;

      case Opcode::ADDI: setDest(a + imm); break;
      case Opcode::ANDI: setDest(a & imm); break;
      case Opcode::ORI: setDest(a | imm); break;
      case Opcode::XORI: setDest(a ^ imm); break;
      // Shift immediates are pre-masked, LUI is pre-shifted.
      case Opcode::SLLI: setDest(a << imm); break;
      case Opcode::SRLI: setDest(a >> imm); break;
      case Opcode::SRAI:
        setDest(static_cast<Word>(static_cast<SWord>(a) >> imm));
        break;
      case Opcode::SLTI:
        setDest(static_cast<SWord>(a) < static_cast<SWord>(imm) ? 1 : 0);
        break;
      case Opcode::SLTIU: setDest(a < imm ? 1 : 0); break;
      case Opcode::LUI: setDest(imm); break;

      case Opcode::LB:
      case Opcode::LH:
      case Opcode::LW: {
        res.isMem = true;
        res.memBytes = u.memBytes;
        res.memAddr = a + imm;
        const Word v = static_cast<Word>(
            sext(state.mem().read(res.memAddr, u.memBytes),
                 u.memBytes * 8));
        res.loadedValue = v;
        setDest(v);
        break;
      }
      case Opcode::LBU:
      case Opcode::LHU:
      case Opcode::LWU:
      case Opcode::LD: {
        res.isMem = true;
        res.memBytes = u.memBytes;
        res.memAddr = a + imm;
        const Word v = state.mem().read(res.memAddr, u.memBytes);
        res.loadedValue = v;
        setDest(v);
        break;
      }

      case Opcode::SB:
      case Opcode::SH:
      case Opcode::SW:
      case Opcode::SD: {
        res.isMem = true;
        res.memBytes = u.memBytes;
        res.memAddr = a + imm;
        res.storeValue = b;
        state.mem().write(res.memAddr, u.memBytes, b);
        break;
      }

      case Opcode::BEQ: condBranch(a == b); break;
      case Opcode::BNE: condBranch(a != b); break;
      case Opcode::BLT:
        condBranch(static_cast<SWord>(a) < static_cast<SWord>(b));
        break;
      case Opcode::BGE:
        condBranch(static_cast<SWord>(a) >= static_cast<SWord>(b));
        break;
      case Opcode::BLTU: condBranch(a < b); break;
      case Opcode::BGEU: condBranch(a >= b); break;

      case Opcode::JAL:
        res.isControl = true;
        res.taken = true;
        res.target = u.target;
        setDest(pc + kInstBytes);
        res.nextPc = res.target;
        break;

      case Opcode::JALR:
        res.isControl = true;
        res.taken = true;
        res.target = a + imm;
        setDest(pc + kInstBytes);
        res.nextPc = res.target;
        break;

      case Opcode::PUTC:
        if (output)
            output->push_back(static_cast<char>(a & 0xff));
        break;

      case Opcode::PUTN:
        if (output) {
            *output += std::to_string(static_cast<SWord>(a));
            output->push_back('\n');
        }
        break;

      case Opcode::HALT:
        res.halted = true;
        res.nextPc = pc; // park
        break;

      case Opcode::NOP:
        break;

      case Opcode::NumOpcodes:
        SLIP_PANIC("executed NumOpcodes sentinel");
    }

    state.setPc(res.nextPc);
}

} // namespace slip
