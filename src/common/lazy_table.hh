/**
 * @file
 * A fixed-size table whose entries cost nothing until they are
 * written.
 *
 * The Table 2 predictors are 2^16-entry tables, and a run touches a
 * small share of their entries. A LazyTable keeps each entry's
 * validity in a bitmap and never initialises entry storage in bulk:
 * an entry is written in full the first time its bit is set, and no
 * entry whose bit is clear is ever read. Construction, destruction and
 * a sweep over the valid entries then cost the bitmap (one word per 64
 * entries) plus the entries themselves, and only the storage pages a
 * run writes become resident.
 */

#ifndef SLIPSTREAM_COMMON_LAZY_TABLE_HH
#define SLIPSTREAM_COMMON_LAZY_TABLE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace slip
{

template <typename Entry>
class LazyTable
{
    static_assert(std::is_trivially_copyable_v<Entry> &&
                      std::is_trivially_destructible_v<Entry>,
                  "entries are written as plain bytes and never "
                  "destroyed");
    static_assert(alignof(Entry) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  public:
    /** A table of 2^indexBits entries, none valid. */
    explicit LazyTable(unsigned indexBits)
        : entries(static_cast<Entry *>(
              ::operator new(sizeof(Entry) << indexBits))),
          valid(((size_t(1) << indexBits) + 63) / 64)
    {}

    /** The entry at `i`, or nullptr while it has never been written. */
    Entry *
    find(size_t i)
    {
        return (valid[i >> 6] >> (i & 63) & 1) ? &entries[i] : nullptr;
    }

    const Entry *
    find(size_t i) const
    {
        return (valid[i >> 6] >> (i & 63) & 1) ? &entries[i] : nullptr;
    }

    /** Write the entry at `i` in full and mark it valid. */
    void
    set(size_t i, const Entry &entry)
    {
        valid[i >> 6] |= uint64_t(1) << (i & 63);
        std::construct_at(&entries[i], entry);
    }

    /** Call fn(entry) on every valid entry, in index order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (size_t w = 0; w < valid.size(); ++w) {
            for (uint64_t bits = valid[w]; bits != 0; bits &= bits - 1)
                fn(entries[w * 64 + std::countr_zero(bits)]);
        }
    }

  private:
    struct Free
    {
        void
        operator()(Entry *p) const
        {
            ::operator delete(p);
        }
    };

    std::unique_ptr<Entry[], Free> entries;
    std::vector<uint64_t> valid; // bit i = entry i written
};

} // namespace slip

#endif // SLIPSTREAM_COMMON_LAZY_TABLE_HH
