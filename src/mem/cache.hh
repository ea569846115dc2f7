/**
 * @file
 * Set-associative cache timing model with true-LRU replacement.
 *
 * This is a *timing* model only: data lives in the simulated Memory;
 * the cache tracks tags to decide hit vs miss latency, exactly the role
 * the private I- and D-caches play in the paper's Table 2 (the shared
 * L2 always hits, so a miss costs a flat penalty).
 */

#ifndef SLIPSTREAM_MEM_CACHE_HH
#define SLIPSTREAM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace slip
{

/** Configuration of one cache (sizes in bytes). */
struct CacheParams
{
    std::string name = "cache";
    uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    Cycle hitLatency = 1;
    Cycle missPenalty = 12;

    bool operator==(const CacheParams &) const = default;
};

/** Tag-only set-associative cache with LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Access the line containing addr, updating tags and LRU state.
     * @return total latency in cycles (hitLatency, plus missPenalty on
     *         a miss).
     */
    Cycle access(Addr addr);

    /** Probe without updating state. True if the line is resident. */
    bool contains(Addr addr) const;

    /** Invalidate all lines (used on context recovery in tests). */
    void flush();

    const CacheParams &params() const { return params_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    /** The checkpoint field list (common/checkpoint.hh). */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar.sparse(
            self.lines.size(),
            [&](size_t i) { return self.lines[i].valid; },
            [&](size_t i) { ar(self.lines[i]); });
        ar(self.useClock, self.hits_, self.misses_, self.stats_);
    }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        uint64_t lastUse = 0; // LRU timestamp
    };

    unsigned setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheParams params_;
    unsigned numSets;
    unsigned lineShift; // log2(lineBytes)
    unsigned tagShift;  // log2(lineBytes * numSets)
    std::vector<Line> lines; // numSets * assoc, set-major
    uint64_t useClock = 0;

    // Touched on every access; linked into stats_ (no string lookup).
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;

    StatGroup stats_;
};

} // namespace slip

#endif // SLIPSTREAM_MEM_CACHE_HH
