/**
 * @file
 * An open-addressed hash table over one flat slot array.
 *
 * Slots are found by linear probing from a Fibonacci-hashed home (the
 * top bits of key * 2^64/phi), the table doubles when it is half full,
 * and erase() shifts the rest of a probe run back instead of leaving a
 * tombstone, so size() is exact and a lookup never walks dead slots.
 * A Slot type provides a 64-bit `key` and `occupied()`, and a
 * default-constructed slot is unoccupied.
 */

#ifndef SLIPSTREAM_COMMON_FLAT_TABLE_HH
#define SLIPSTREAM_COMMON_FLAT_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace slip
{

template <typename Slot>
class FlatTable
{
  public:
    /** A table of 2^bits slots, all empty. */
    explicit FlatTable(unsigned bits = 4)
        : slots(size_t(1) << bits), shift(64 - bits)
    {}

    size_t size() const { return used; }
    bool empty() const { return used == 0; }

    /** The occupied slot holding `key`, or nullptr. */
    Slot *
    find(uint64_t key)
    {
        for (size_t i = home(key);; i = next(i)) {
            Slot &slot = slots[i];
            if (!slot.occupied())
                return nullptr;
            if (slot.key == key)
                return &slot;
        }
    }

    /**
     * The slot holding `key`. If there is none, an empty slot is
     * given the key and counted in size(); the caller must occupy it
     * before the next call into the table.
     */
    Slot &
    insert(uint64_t key)
    {
        size_t i = home(key);
        for (; slots[i].occupied(); i = next(i)) {
            if (slots[i].key == key)
                return slots[i];
        }
        if ((used + 1) * 2 > slots.size()) {
            grow();
            return insert(key);
        }
        ++used;
        slots[i] = Slot{};
        slots[i].key = key;
        return slots[i];
    }

    /** Empty an occupied slot, closing the gap in its probe run. */
    void
    erase(Slot &slot)
    {
        size_t hole = static_cast<size_t>(&slot - slots.data());
        for (size_t j = next(hole); slots[j].occupied(); j = next(j)) {
            // The entry at j may fill the hole only if its home does
            // not lie after the hole on the way to j.
            if (((j - home(slots[j].key)) & mask()) >=
                ((j - hole) & mask())) {
                slots[hole] = slots[j];
                hole = j;
            }
        }
        slots[hole] = Slot{};
        --used;
    }

    /** Keep only the slots `keep` accepts; capacity is unchanged. */
    template <typename Keep>
    void
    retain(Keep &&keep)
    {
        std::vector<Slot> kept;
        for (const Slot &slot : slots) {
            if (slot.occupied() && keep(slot))
                kept.push_back(slot);
        }
        clear();
        for (const Slot &slot : kept)
            place(slot);
    }

    void
    clear()
    {
        if (used == 0)
            return;
        std::fill(slots.begin(), slots.end(), Slot{});
        used = 0;
    }

    /**
     * The checkpoint field list (common/checkpoint.hh): the table's
     * size and its occupied slots, each where it sits, so a restored
     * table probes exactly as the captured one did.
     */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        uint64_t n = self.slots.size();
        ar(n, self.shift, self.used);
        if constexpr (Ar::kRestoring)
            self.slots.assign(n, Slot{});
        ar.sparse(
            n, [&](size_t i) { return self.slots[i].occupied(); },
            [&](size_t i) { ar(self.slots[i]); });
    }

  private:
    size_t mask() const { return slots.size() - 1; }
    size_t next(size_t i) const { return (i + 1) & mask(); }

    size_t
    home(uint64_t key) const
    {
        return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift);
    }

    /** Put an occupied slot at the end of its probe run. */
    void
    place(const Slot &slot)
    {
        size_t i = home(slot.key);
        while (slots[i].occupied())
            i = next(i);
        slots[i] = slot;
        ++used;
    }

    void
    grow()
    {
        std::vector<Slot> old(slots.size() * 2);
        old.swap(slots);
        --shift;
        used = 0;
        for (const Slot &slot : old) {
            if (slot.occupied())
                place(slot);
        }
    }

    std::vector<Slot> slots;
    unsigned shift; // 64 - log2(slots.size())
    size_t used = 0;
};

} // namespace slip

#endif // SLIPSTREAM_COMMON_FLAT_TABLE_HH
