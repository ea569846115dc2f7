/**
 * @file
 * Persistent content-addressed result cache for served trials.
 *
 * A campaign trial's entry is named by its campaignTrialKey()
 * (harness/fault_campaign.hh): a hash of everything that shapes the
 * result line and nothing that cannot (isolation, worker or client
 * count), so a repeated batch — same client, different client, or a
 * slipd restarted yesterday — answers from disk without re-simulating.
 *
 * Layout: one file per entry, `root/<hh>/<32-hex-key>`, holding a
 * 40-byte header {u64 magic, u64 key hi, u64 key lo, u64 line length,
 * u64 checksum of the line} followed by the exact JSONL line bytes
 * (no newline). lookup() checks all four header fields against the
 * key it asked for and the bytes it read; an entry that fails — empty,
 * short, flipped on disk, or holding another key's line — is a miss:
 * it is deleted (store() skips paths that exist, so the re-simulated
 * line can take its place), counted `corrupt`, and warned about. A
 * persisted result is never served unverified.
 *
 * Stores write to a temp sibling `<key>.tmp.<pid>` and rename into
 * place, so a killed slipd never leaves a torn entry — a half-written
 * temp file just never becomes visible. Temp files never count as
 * entries, and opening a cache removes those whose writer is no
 * longer running. The two-hex shard keeps directories small at
 * 6-figure entry counts.
 */

#ifndef SLIPSTREAM_SERVE_RESULT_CACHE_HH
#define SLIPSTREAM_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/stats.hh"
#include "harness/fault_campaign.hh"

namespace slip::serve
{

/** A cache key; hex() is its on-disk file name. */
using CacheKey = Hash128;

/** A campaign trial's key (harness/fault_campaign.hh). */
using slip::campaignTrialKey;

/** A key over arbitrary canonical bytes (fuzz trials, tests). */
CacheKey cacheKeyOf(const std::string &canonicalBytes);

/**
 * The cache itself. Thread-safe: servers probe and store from many
 * connection threads. An empty root disables everything (lookup
 * always misses, store drops), so callers need no special-casing.
 */
class ResultCache
{
  public:
    /**
     * `maxEntries` caps the entry count. When a store would
     * exceed the cap, the oldest entries (by modification time) are
     * evicted in bulk — 1/16th of the cap per sweep, so eviction cost
     * amortizes instead of landing on every store.
     */
    explicit ResultCache(std::string root, uint64_t maxEntries = 65536);

    /**
     * True + the stored line on a hit. An entry that fails
     * verification is a miss: it is deleted and counted in corrupt().
     */
    bool lookup(const CacheKey &key, std::string &line);

    /** Persist one result line (atomic rename; never throws). */
    void store(const CacheKey &key, const std::string &line);

    uint64_t hits() const;
    uint64_t misses() const;
    uint64_t stores() const;
    uint64_t evictions() const;

    /** Entries that failed verification on lookup (and were deleted). */
    uint64_t corrupt() const;

    /** Entries currently on disk (tracked, not re-scanned). */
    uint64_t entries() const;

    const std::string &root() const { return root_; }
    bool enabled() const { return !root_.empty(); }

    /** Counters above as a StatGroup dump ("serve_cache.*"). */
    void dumpStats(std::ostream &os) const;

  private:
    void evictIfNeeded();

    /** Delete a corrupt entry; counts the miss. */
    void discard(const std::string &path, const char *defect);

    std::string pathFor(const CacheKey &key) const;

    std::string root_;
    uint64_t maxEntries_;

    mutable std::mutex mu_;
    uint64_t entries_ = 0;
    mutable StatGroup stats_{"serve_cache"};
};

} // namespace slip::serve

#endif // SLIPSTREAM_SERVE_RESULT_CACHE_HH
