#include "slipstream/operand_rename_table.hh"

#include <bit>

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
    MemSlot *slot = mem.find(memKey(addr, bytes));
    if (!slot)
        return nullptr;
    slot->entry.ref = true;
    return slot->entry.producerValid ? &slot->entry.producer : nullptr;
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
    const OrtWriteResult result = writeEntry(regs[r], value, producer);
    if (!result.nonModifying) {
        if (!regInstalls.empty() &&
            regInstalls.back().packetNum == producer.packetNum) {
            regInstalls.back().mask |= uint64_t(1) << r;
        } else {
            SLIP_ASSERT(regInstalls.empty() ||
                            regInstalls.back().packetNum <
                                producer.packetNum,
                        "ORT install from packet ", producer.packetNum,
                        " after packet ", regInstalls.back().packetNum);
            regInstalls.pushBack({producer.packetNum, uint64_t(1) << r});
        }
    }
    return result;
}

OrtWriteResult
OperandRenameTable::writeMem(Addr addr, unsigned bytes, Word value,
                             const OrtProducer &producer)
{
    const uint64_t key = memKey(addr, bytes);
    // A fresh slot's entry is not valid yet, and writeEntry always
    // makes it so, which occupies the slot.
    const OrtWriteResult result =
        writeEntry(mem.insert(key).entry, value, producer);
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
    if (!regInstalls.empty() && regInstalls.front().packetNum == packetNum) {
        for (uint64_t m = regInstalls.front().mask; m != 0; m &= m - 1) {
            Entry &e = regs[std::countr_zero(m)];
            if (e.producer.packetNum == packetNum)
                e.producerValid = false;
        }
        regInstalls.popFront();
    }
    SLIP_ASSERT(regInstalls.empty() ||
                    regInstalls.front().packetNum > packetNum,
                "ORT evicting packet ", packetNum, " before packet ",
                regInstalls.front().packetNum);
    while (!installs.empty() && installs.front().packetNum == packetNum) {
        MemSlot *slot = mem.find(installs.front().key);
        if (slot && slot->entry.producer.packetNum == packetNum)
            slot->entry.producerValid = false;
        installs.popFront();
    }
    SLIP_ASSERT(installs.empty() || installs.front().packetNum > packetNum,
                "ORT evicting packet ", packetNum, " before packet ",
                installs.front().packetNum);
    // Bound the memory table: entries with a live producer must stay
    // (they can still be killed), the rest are value-only cache and
    // can be shed under pressure.
    if (mem.size() > kMemEntryCap)
        mem.retain([](const MemSlot &slot) {
            return slot.entry.producerValid;
        });
}

void
OperandRenameTable::reset()
{
    for (Entry &e : regs)
        e = Entry{};
    mem.clear();
    installs.clear();
    regInstalls.clear();
}

} // namespace slip
