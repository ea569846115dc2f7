#include "slipstream/operand_rename_table.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace slip
{

OperandRenameTable::OperandRenameTable() = default;

uint64_t
OperandRenameTable::memKey(Addr addr, unsigned bytes)
{
    // Location identity is (address, size). Differently-sized accesses
    // to overlapping bytes are treated as distinct locations — a
    // conservative approximation that can only suppress removal, never
    // wrongly enable it (removal safety is enforced downstream by the
    // R-stream checks in any case).
    return (addr << 2) | floorLog2(bytes);
}

const OrtProducer *
OperandRenameTable::readReg(RegIndex r)
{
    if (r == kZeroReg)
        return nullptr; // r0 has no producer
    Entry &e = regs[r];
    if (!e.valid)
        return nullptr;
    e.ref = true;
    return e.producerValid ? &e.producer : nullptr;
}

const OrtProducer *
OperandRenameTable::readMem(Addr addr, unsigned bytes)
{
    auto it = mem.find(memKey(addr, bytes));
    if (it == mem.end() || !it->second.valid)
        return nullptr;
    it->second.ref = true;
    return it->second.producerValid ? &it->second.producer : nullptr;
}

OrtWriteResult
OperandRenameTable::writeEntry(Entry &e, Word value,
                               const OrtProducer &producer)
{
    OrtWriteResult result;

    if (e.valid && e.value == value) {
        // Non-modifying write: the current instruction is selected for
        // removal and the old producer remains live.
        result.nonModifying = true;
        return result;
    }

    if (e.valid && e.producerValid) {
        result.killedValid = true;
        result.killed = e.producer;
        result.killedUnreferenced = !e.ref;
    }

    e.valid = true;
    e.producerValid = true;
    e.ref = false;
    e.value = value;
    e.producer = producer;
    return result;
}

OrtWriteResult
OperandRenameTable::writeReg(RegIndex r, Word value,
                             const OrtProducer &producer)
{
    SLIP_ASSERT(r < kNumRegs, "bad register ", unsigned(r));
    if (r == kZeroReg)
        return {}; // writes to r0 are architectural no-ops
    return writeEntry(regs[r], value, producer);
}

OrtWriteResult
OperandRenameTable::writeMem(Addr addr, unsigned bytes, Word value,
                             const OrtProducer &producer)
{
    const uint64_t key = memKey(addr, bytes);
    const OrtWriteResult result = writeEntry(mem[key], value, producer);
    if (!result.nonModifying) {
        SLIP_ASSERT(installs.empty() ||
                        installs.back().packetNum <= producer.packetNum,
                    "ORT install from packet ", producer.packetNum,
                    " after packet ", installs.back().packetNum);
        installs.pushBack({producer.packetNum, key});
    }
    return result;
}

void
OperandRenameTable::invalidateProducer(uint64_t packetNum)
{
    for (Entry &e : regs) {
        if (e.producerValid && e.producer.packetNum == packetNum)
            e.producerValid = false;
    }
    while (!installs.empty() && installs.front().packetNum == packetNum) {
        auto it = mem.find(installs.front().key);
        if (it != mem.end() && it->second.producer.packetNum == packetNum)
            it->second.producerValid = false;
        installs.popFront();
    }
    SLIP_ASSERT(installs.empty() || installs.front().packetNum > packetNum,
                "ORT evicting packet ", packetNum, " before packet ",
                installs.front().packetNum);
    // Bound the memory table: entries with a live producer must stay
    // (they can still be killed), the rest are value-only cache and
    // can be shed under pressure.
    if (mem.size() > kMemEntryCap) {
        std::erase_if(mem, [](const auto &kv) {
            return !kv.second.producerValid;
        });
    }
}

void
OperandRenameTable::reset()
{
    for (Entry &e : regs)
        e = Entry{};
    mem.clear();
    installs.clear();
}

} // namespace slip
