#include "serve/result_cache.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/atomic_write.hh"
#include "common/env.hh"
#include "common/fd_io.hh"
#include "common/logging.hh"
#include "obs/trace_session.hh"

namespace fs = std::filesystem;

namespace slip::serve
{

namespace
{

/** The first bytes of every entry file ("SPLCACH1" as read from disk). */
constexpr uint64_t kEntryMagic = 0x31484341434c5053ULL;

struct EntryHeader
{
    uint64_t magic;
    uint64_t keyHi;
    uint64_t keyLo;
    uint64_t length;   // line bytes following the header
    uint64_t checksum; // lineChecksum() of those bytes
};

static_assert(sizeof(EntryHeader) == 40, "entry header is on-disk format");

// A result line is a few hundred bytes; a file this much longer than
// its header is damage, not a line, and is never read into memory.
constexpr uint64_t kMaxLine = 64u << 20;

/**
 * 64-bit checksum of a line, eight bytes a step. Each step is a
 * bijection of both the running sum and the word, so any one changed
 * word always changes the result.
 */
uint64_t
lineChecksum(const std::string &line)
{
    constexpr uint64_t kMul = 0xff51afd7ed558ccdULL;
    const char *p = line.data();
    const size_t n = line.size();
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * kMul;
        h ^= h >> 32;
    }
    uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    h = (h ^ tail) * kMul;
    return h ^ (h >> 32);
}

/**
 * Read the entry open on `fd` into `line` and verify it against
 * `key`. Returns nullptr when it is intact, else what is wrong.
 */
const char *
readEntry(int fd, const CacheKey &key, std::string &line)
{
    struct stat st;
    if (::fstat(fd, &st) != 0)
        return "cannot stat";
    const uint64_t size = uint64_t(st.st_size);
    if (size == 0)
        return "empty";
    if (size < sizeof(EntryHeader))
        return "shorter than its header";
    if (size - sizeof(EntryHeader) > kMaxLine)
        return "oversized";
    line.resize(size);
    if (readAll(fd, line.data(), size) != 1)
        return "short read";
    EntryHeader hdr;
    std::memcpy(&hdr, line.data(), sizeof(hdr));
    line.erase(0, sizeof(hdr));
    if (hdr.magic != kEntryMagic)
        return "bad magic";
    if (hdr.keyHi != key.hi || hdr.keyLo != key.lo)
        return "holds another key";
    if (hdr.length != line.size())
        return "length mismatch";
    if (hdr.checksum != lineChecksum(line))
        return "checksum mismatch";
    return nullptr;
}

/** Is `name` a store's temp file (`<key>.tmp.<pid>`)? */
bool
isTempName(const std::string &name)
{
    return name.find(".tmp.") != std::string::npos;
}

/** Is temp file `name`'s writer no longer a running process? */
bool
writerGone(const std::string &name)
{
    pid_t pid = 0;
    if (!parseUnsigned(name.substr(name.rfind(".tmp.") + 5), pid) || pid <= 0)
        return false;
    return ::kill(pid, 0) != 0 && errno == ESRCH;
}

/** Call fn(directory_entry) for every regular file in root's shards. */
template <typename Fn>
void
forEachShardFile(const std::string &root, Fn fn)
{
    std::error_code ec;
    for (const auto &shard : fs::directory_iterator(root, ec)) {
        if (!shard.is_directory())
            continue;
        for (const auto &e : fs::directory_iterator(shard.path(), ec))
            if (e.is_regular_file())
                fn(e);
    }
}

} // namespace

CacheKey
cacheKeyOf(const std::string &canonicalBytes)
{
    Fnv128 h;
    h.put(canonicalBytes.data(), canonicalBytes.size());
    return h.digest();
}

ResultCache::ResultCache(std::string root, uint64_t maxEntries)
    : root_(std::move(root)), maxEntries_(maxEntries)
{
    if (root_.empty())
        return;
    std::error_code ec;
    fs::create_directories(root_, ec);
    if (ec) {
        SLIP_WARN("result cache: cannot create '", root_, "' (",
                  ec.message(), "); caching disabled");
        root_.clear();
        return;
    }
    // Count what a previous slipd left behind — those entries are the
    // whole point of persistence, and the eviction cap must see them.
    // Temp files are not entries; those of a dead writer never will
    // be, so they go.
    uint64_t found = 0;
    std::vector<fs::path> stale;
    forEachShardFile(root_, [&](const fs::directory_entry &e) {
        const std::string name = e.path().filename().string();
        if (!isTempName(name))
            ++found;
        else if (writerGone(name))
            stale.push_back(e.path());
    });
    for (const fs::path &path : stale)
        fs::remove(path, ec);
    entries_ = found;
}

std::string
ResultCache::pathFor(const CacheKey &key) const
{
    const std::string hex = key.hex();
    return root_ + "/" + hex.substr(0, 2) + "/" + hex;
}

bool
ResultCache::lookup(const CacheKey &key, std::string &line)
{
    if (root_.empty())
        return false;
    const std::string path = pathFor(key);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.counter("misses");
        return false;
    }
    const char *defect = readEntry(fd, key, line);
    ::close(fd);
    if (defect) {
        discard(path, defect);
        return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.counter("hits");
    SLIP_TRACE(obs::Category::Serve, obs::Name::CacheHit,
               obs::Phase::Instant, key.hi, key.lo);
    return true;
}

void
ResultCache::discard(const std::string &path, const char *defect)
{
    // Deleting the entry is what keeps this warning to once per entry:
    // the next lookup finds no file and misses quietly.
    SLIP_WARN("result cache: entry '", path, "' is corrupt (", defect,
              "); deleting it, the trial re-simulates");
    const bool removed = ::unlink(path.c_str()) == 0;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.counter("misses");
    ++stats_.counter("corrupt");
    if (removed && entries_ > 0)
        --entries_;
}

void
ResultCache::store(const CacheKey &key, const std::string &line)
{
    if (root_.empty())
        return;
    const std::string path = pathFor(key);
    std::error_code ec;
    if (fs::exists(path, ec))
        return; // content-addressed: same key, same bytes
    const EntryHeader hdr{kEntryMagic, key.hi, key.lo, line.size(),
                          lineChecksum(line)};
    const std::string bytes(reinterpret_cast<const char *>(&hdr),
                            sizeof(hdr));
    if (!writeFileAtomically(path, bytes + line, "result cache entry"))
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++entries_;
        ++stats_.counter("stores");
    }
    SLIP_TRACE(obs::Category::Serve, obs::Name::CacheStore,
               obs::Phase::Instant, key.hi, key.lo);
    evictIfNeeded();
}

void
ResultCache::evictIfNeeded()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (entries_ <= maxEntries_)
            return;
    }
    // Over the cap: sweep the whole tree once, drop the oldest
    // entries down to cap minus one sweep-quantum so the next stores
    // are free. mtime order is eviction policy, not correctness — a
    // mis-ordered eviction costs one re-simulation.
    std::vector<std::pair<fs::file_time_type, fs::path>> files;
    std::error_code ec;
    forEachShardFile(root_, [&](const fs::directory_entry &e) {
        if (!isTempName(e.path().filename().string()))
            files.emplace_back(e.last_write_time(ec), e.path());
    });
    const uint64_t target =
        maxEntries_ > maxEntries_ / 16 ? maxEntries_ - maxEntries_ / 16
                                       : maxEntries_;
    if (files.size() <= target)
        return;
    std::sort(files.begin(), files.end());
    const uint64_t drop = files.size() - target;
    uint64_t dropped = 0;
    for (uint64_t i = 0; i < drop; ++i)
        if (fs::remove(files[i].second, ec))
            ++dropped;
    std::lock_guard<std::mutex> lock(mu_);
    entries_ = files.size() - dropped;
    stats_.counter("evictions") += dropped;
    SLIP_TRACE(obs::Category::Serve, obs::Name::CacheEvict,
               obs::Phase::Instant, dropped, entries_);
}

uint64_t
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.get("hits");
}

uint64_t
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.get("misses");
}

uint64_t
ResultCache::stores() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.get("stores");
}

uint64_t
ResultCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.get("evictions");
}

uint64_t
ResultCache::corrupt() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.get("corrupt");
}

uint64_t
ResultCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
}

void
ResultCache::dumpStats(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.counter("entries").reset();
    stats_.counter("entries") += entries_;
    stats_.dump(os);
}

} // namespace slip::serve
