/**
 * @file
 * Sparse paged simulated memory.
 *
 * The simulated address space is flat and 64-bit; pages are allocated
 * on first touch so wild addresses (which a corrupted A-stream context
 * can legitimately generate) cost one page rather than crashing the
 * host. All accesses are little-endian and may be unaligned — again so
 * that corrupt-context execution stays well-defined.
 */

#ifndef SLIPSTREAM_MEM_MEMORY_HH
#define SLIPSTREAM_MEM_MEMORY_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace slip
{

/** Flat byte-addressed sparse memory. Untouched bytes read as zero. */
class Memory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr Addr kPageBytes = 1ull << kPageShift;

    Memory() = default;

    // Memory images can be large; copying must be explicit (clone()).
    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;
    // Moves bump the epoch: any cached page pointer into either image
    // must be revalidated.
    Memory(Memory &&other) noexcept
        : pages(std::move(other.pages)), epoch_(other.epoch_ + 1)
    {
        ++other.epoch_;
    }
    Memory &
    operator=(Memory &&other) noexcept
    {
        pages = std::move(other.pages);
        ++other.epoch_;
        ++epoch_;
        return *this;
    }

    /** Read `bytes` (1/2/4/8) little-endian starting at addr. */
    uint64_t read(Addr addr, unsigned bytes) const;

    /** Write the low `bytes` (1/2/4/8) of value little-endian at addr. */
    void write(Addr addr, unsigned bytes, uint64_t value);

    /** Bulk copy-in, used by the program loader. */
    void writeBlock(Addr addr, const uint8_t *data, size_t len);

    /** Bulk copy-out; bytes on never-touched pages read as zero. */
    void readBlock(Addr addr, uint8_t *out, size_t len) const;

    /**
     * Raw storage of the page containing `pageAddr` (which must be
     * page-aligned), or nullptr if never touched. Never allocates, so
     * it is safe on the load path where sparse semantics require that
     * reads leave the footprint unchanged. The pointer stays valid
     * until epoch() changes (unordered_map nodes are stable across
     * inserts; only clear()/moves invalidate).
     */
    const uint8_t *
    peekPagePtr(Addr pageAddr) const
    {
        const Page *p = findPage(pageAddr);
        return p ? p->data() : nullptr;
    }

    uint8_t *
    peekPagePtr(Addr pageAddr)
    {
        Page *p = const_cast<Page *>(findPage(pageAddr));
        return p ? p->data() : nullptr;
    }

    /** Like peekPagePtr but allocates a zero page on first touch. */
    uint8_t *
    touchPagePtr(Addr pageAddr)
    {
        return touchPage(pageAddr).data();
    }

    /**
     * Invalidation counter for cached page pointers: incremented by
     * clear() and by moves — the only operations that can invalidate
     * a Page's storage.
     */
    uint64_t epoch() const { return epoch_; }

    /** Deep copy of the full image (tests / golden snapshots). */
    Memory clone() const;

    /**
     * Structural equality of contents: pages absent on one side compare
     * equal to all-zero pages on the other.
     */
    bool equals(const Memory &other) const;

    /** Number of allocated pages (footprint diagnostics). */
    size_t numPages() const { return pages.size(); }

    /** Drop every page. */
    void
    clear()
    {
        pages.clear();
        ++epoch_;
    }

    /**
     * The checkpoint field list (common/checkpoint.hh): every page.
     * A restore moves page storage, so it bumps the epoch.
     */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar(self.pages);
        if constexpr (Ar::kRestoring)
            ++self.epoch_;
    }

  private:
    using Page = std::vector<uint8_t>;

    /** Page lookup for reads; returns nullptr if never touched. */
    const Page *findPage(Addr pageAddr) const;

    /** Page lookup for writes; allocates a zero page on first touch. */
    Page &touchPage(Addr pageAddr);

    std::unordered_map<Addr, Page> pages;
    uint64_t epoch_ = 0;
};

} // namespace slip

#endif // SLIPSTREAM_MEM_MEMORY_HH
