/**
 * @file
 * Checkpoint archives: a component's mutable state as bytes, and back.
 *
 * A component names its state once, in a static
 * `checkpointFields(self, ar)` that passes each field to `ar(...)`.
 * Capture walks the list with a Writer and restore with a Reader, so
 * the two cannot drift apart (the field-list idiom of harness/wire.hh;
 * a record with only a wire `fields` list is walked through that).
 * Each field's type picks its encoding: a record through its list, a
 * trivially copyable value as its bytes (so a type holding a pointer
 * needs a list that leaves the pointer out), a string or a sequence
 * (vector, deque, Ring) as a count plus its elements, a map or set as
 * a count plus its entries.
 *
 * Tables too large to store whole go through sparse(): only the
 * entries a run has made live are stored, each by its index. A Reader
 * visits only those indices, and restoring into a map assigns key by
 * key (nodes a StatGroup::Handle points at stay where they are), so
 * state restores only into a freshly built component.
 *
 * Every capture is taken at a cycle boundary, which the archive
 * carries: cycle() is the first cycle the restored machine will run.
 *
 * The bytes live only inside one process: they hold host-endian
 * integers, and nothing writes them to a file or a wire.
 */

#ifndef SLIPSTREAM_COMMON_CHECKPOINT_HH
#define SLIPSTREAM_COMMON_CHECKPOINT_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace slip::ckpt
{

// How the walkers tell the field types apart.

/** Accepts any visit, to ask whether a type has a wire field list. */
struct AnyVisit
{
    template <typename... A>
    void
    operator()(A &&...) const
    {}
};

template <typename T>
concept WireListed = requires(T &v) { T::fields(v, AnyVisit{}); };
template <typename T>
concept MapLike = requires { typename T::mapped_type; };
template <typename T>
concept SetLike =
    requires { typename T::key_type; } && !MapLike<T>;
template <typename T>
concept Sequence = requires(T &v, size_t i) {
    v.size();
    v[i];
    v.clear();
} && !std::is_same_v<T, std::string>;

/** Capture: walks field lists into bytes. */
class Writer
{
  public:
    static constexpr bool kRestoring = false;

    /** A capture at the boundary before cycle `at`. */
    explicit Writer(Cycle at) : at_(at) { put(at); }

    /** The first cycle the restored machine runs. */
    Cycle cycle() const { return at_; }

    template <typename... T>
    void
    operator()(const T &...fields)
    {
        (put(fields), ...);
    }

    /**
     * The entries i < n that `live(i)` accepts, each as its index and
     * whatever `entry(i)` passes to the archive.
     */
    template <typename Live, typename Entry>
    void
    sparse(size_t n, Live &&live, Entry &&entry)
    {
        SLIP_ASSERT(n <= UINT32_MAX, "table of ", n, " entries");
        const size_t at = buf_.size();
        put(uint64_t(0)); // patched to the count below
        uint64_t count = 0;
        for (size_t i = 0; i < n; ++i) {
            if (!live(i))
                continue;
            put(uint32_t(i));
            entry(i);
            ++count;
        }
        std::memcpy(buf_.data() + at, &count, sizeof count);
    }

    /** The capture so far. */
    std::string take() { return std::move(buf_); }

  private:
    void
    raw(const void *p, size_t n)
    {
        if (n != 0) // an empty vector's data() may be null
            buf_.append(static_cast<const char *>(p), n);
    }

    template <typename T>
    void
    put(const T &v)
    {
        if constexpr (requires { T::checkpointFields(v, *this); }) {
            T::checkpointFields(v, *this);
        } else if constexpr (std::is_trivially_copyable_v<T>) {
            raw(&v, sizeof v);
        } else if constexpr (WireListed<T>) {
            T::fields(v, [this](const char *, const auto &f) { put(f); });
        } else if constexpr (std::is_same_v<T, std::string>) {
            put(uint64_t(v.size()));
            raw(v.data(), v.size());
        } else if constexpr (MapLike<T>) {
            put(uint64_t(v.size()));
            for (const auto &[key, value] : v) {
                put(key);
                put(value);
            }
        } else if constexpr (SetLike<T>) {
            put(uint64_t(v.size()));
            for (const auto &key : v)
                put(key);
        } else if constexpr (Sequence<T>) {
            using E = std::remove_cvref_t<decltype(v[0])>;
            put(uint64_t(v.size()));
            if constexpr (requires { v.data(); } &&
                          std::is_trivially_copyable_v<E> &&
                          !requires(const E &e) {
                              E::checkpointFields(e, *this);
                          }) {
                raw(v.data(), v.size() * sizeof(E));
            } else {
                for (size_t i = 0; i < v.size(); ++i)
                    put(v[i]);
            }
        } else {
            static_assert(sizeof(T) == 0, "no checkpoint encoding");
        }
    }

    Cycle at_;
    std::string buf_;
};

/** Restore: walks field lists out of bytes a Writer produced. */
class Reader
{
  public:
    static constexpr bool kRestoring = true;

    explicit Reader(std::string_view bytes) : buf_(bytes) { get(at_); }

    Cycle cycle() const { return at_; }

    template <typename... T>
    void
    operator()(T &...fields)
    {
        (get(fields), ...);
    }

    /** Restore what Writer::sparse stored; other entries are left. */
    template <typename Live, typename Entry>
    void
    sparse(size_t n, Live &&, Entry &&entry)
    {
        uint64_t count = 0;
        get(count);
        for (uint64_t k = 0; k < count; ++k) {
            uint32_t i = 0;
            get(i);
            if (i >= n)
                SLIP_PANIC("checkpoint: table index ", i,
                           " out of range (", n, " entries)");
            entry(size_t(i));
        }
    }

    /** Every byte was consumed. */
    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    void
    raw(void *p, size_t n)
    {
        if (n == 0)
            return; // an empty vector's data() may be null
        if (buf_.size() - pos_ < n)
            SLIP_PANIC("checkpoint: truncated at byte ", pos_);
        std::memcpy(p, buf_.data() + pos_, n);
        pos_ += n;
    }

    size_t
    count()
    {
        uint64_t n = 0;
        get(n);
        return size_t(n);
    }

    template <typename T>
    void
    get(T &v)
    {
        if constexpr (requires { T::checkpointFields(v, *this); }) {
            T::checkpointFields(v, *this);
        } else if constexpr (std::is_trivially_copyable_v<T>) {
            raw(&v, sizeof v);
        } else if constexpr (WireListed<T>) {
            T::fields(v, [this](const char *, auto &f) { get(f); });
        } else if constexpr (std::is_same_v<T, std::string>) {
            v.resize(count());
            raw(v.data(), v.size());
        } else if constexpr (MapLike<T>) {
            const size_t n = count();
            std::vector<typename T::key_type> keys(n);
            for (size_t i = 0; i < n; ++i) {
                get(keys[i]);
                get(v[keys[i]]);
            }
            for (auto it = v.begin(); v.size() != n;) {
                if (std::find(keys.begin(), keys.end(), it->first) ==
                    keys.end())
                    it = v.erase(it); // a key the capture did not hold
                else
                    ++it;
            }
        } else if constexpr (SetLike<T>) {
            v.clear();
            const size_t n = count();
            for (size_t i = 0; i < n; ++i) {
                typename T::key_type key{};
                get(key);
                v.insert(std::move(key));
            }
        } else if constexpr (Sequence<T>) {
            using E = std::remove_cvref_t<decltype(v[0])>;
            const size_t n = count();
            v.clear();
            if constexpr (requires { v.resize(n); v.data(); } &&
                          std::is_trivially_copyable_v<E> &&
                          !requires(E &e) {
                              E::checkpointFields(e, *this);
                          }) {
                v.resize(n);
                raw(v.data(), n * sizeof(E));
            } else if constexpr (requires { v.emplace_back(); }) {
                for (size_t i = 0; i < n; ++i)
                    get(v.emplace_back());
            } else {
                for (size_t i = 0; i < n; ++i)
                    get(v.pushBack()); // a Ring
            }
        } else {
            static_assert(sizeof(T) == 0, "no checkpoint encoding");
        }
    }

    std::string_view buf_;
    size_t pos_ = 0;
    Cycle at_ = 0;
};

} // namespace slip::ckpt

#endif // SLIPSTREAM_COMMON_CHECKPOINT_HH
