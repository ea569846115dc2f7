/**
 * @file
 * Lightweight statistics package in the spirit of classic simulator
 * stats frameworks: named scalar counters and distributions are
 * registered with a StatGroup, which can be dumped as formatted text.
 * Every model component owns a StatGroup so benchmarks and tests can
 * inspect behaviour without poking at internals.
 */

#ifndef SLIPSTREAM_COMMON_STATS_HH
#define SLIPSTREAM_COMMON_STATS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "common/logging.hh"

namespace slip
{

/** A named monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(uint64_t n) { value_ += n; return *this; }

    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/** Tracks min / max / sum / count of a sampled quantity. */
class Distribution
{
  public:
    void
    sample(uint64_t v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
    }

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return count_ ? max_ : 0; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }

    void
    reset()
    {
        min_ = max_ = sum_ = count_ = 0;
    }

  private:
    uint64_t min_ = 0;
    uint64_t max_ = 0;
    uint64_t sum_ = 0;
    uint64_t count_ = 0;
};

/**
 * Log2-bucketed histogram of a sampled quantity. Bucket 0 holds value
 * 0; bucket b >= 1 holds values in [2^(b-1), 2^b). 65 buckets cover
 * the full uint64_t range, so sampling is an increment at a computed
 * index — cheap enough for per-event telemetry (detection latencies,
 * occupancies, span lengths) where a mean alone hides the tail.
 */
class Histogram
{
  public:
    static constexpr unsigned kBuckets = 65;

    /** Bucket index of a value: 0 for 0, else 1 + floor(log2 v). */
    static unsigned
    bucketOf(uint64_t v)
    {
        return v == 0 ? 0 : unsigned(std::bit_width(v));
    }

    /** Smallest value landing in bucket b. */
    static uint64_t
    bucketLo(unsigned b)
    {
        return b == 0 ? 0 : uint64_t(1) << (b - 1);
    }

    /** Largest value landing in bucket b. */
    static uint64_t
    bucketHi(unsigned b)
    {
        return b >= 64 ? ~uint64_t(0) : (uint64_t(1) << b) - 1;
    }

    void
    sample(uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
    }

    /**
     * Credit `n` samples directly to bucket `b` (reconstructing a
     * histogram from journaled bucket counts). min/max/sum are
     * approximated by the bucket's lower bound.
     */
    void
    addToBucket(unsigned b, uint64_t n)
    {
        SLIP_ASSERT(b < kBuckets, "histogram bucket ", b,
                    " out of range");
        if (n == 0)
            return;
        const uint64_t lo = bucketLo(b);
        buckets_[b] += n;
        if (count_ == 0 || lo < min_)
            min_ = lo;
        if (count_ == 0 || lo > max_)
            max_ = lo;
        sum_ += lo * n;
        count_ += n;
    }

    void
    merge(const Histogram &other)
    {
        if (other.count_ == 0)
            return;
        for (unsigned b = 0; b < kBuckets; ++b)
            buckets_[b] += other.buckets_[b];
        if (count_ == 0 || other.min_ < min_)
            min_ = other.min_;
        if (count_ == 0 || other.max_ > max_)
            max_ = other.max_;
        sum_ += other.sum_;
        count_ += other.count_;
    }

    uint64_t bucket(unsigned b) const { return buckets_[b]; }
    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return count_ ? max_ : 0; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }

    void
    reset()
    {
        buckets_.fill(0);
        min_ = max_ = sum_ = count_ = 0;
    }

  private:
    std::array<uint64_t, kBuckets> buckets_{};
    uint64_t min_ = 0;
    uint64_t max_ = 0;
    uint64_t sum_ = 0;
    uint64_t count_ = 0;
};

/**
 * A registry of named counters and distributions. Components create
 * stats lazily by name; dump() prints them sorted for stable output.
 *
 * Two mechanisms keep string lookups off simulation hot paths:
 *
 *  - Handle: resolves the name to its Counter once (counters have
 *    stable addresses; the registry is node-based), so per-event code
 *    pays a pointer increment instead of a map lookup.
 *  - link(): registers an external plain uint64_t that the component
 *    increments directly; the group folds it into get()/dump()/reset()
 *    on demand. Used for the per-instruction core and cache counters.
 */
class StatGroup
{
  public:
    /**
     * A pre-resolved counter reference. Obtain via handle(); the
     * default-constructed state is unbound and must not be
     * incremented.
     */
    class Handle
    {
      public:
        Handle() = default;

        // Increment mutates the referenced Counter, not the Handle,
        // so these are const: usable from const methods alongside a
        // `mutable StatGroup` (the established stats idiom here).
        const Handle &operator++() const { ++*c_; return *this; }
        const Handle &operator+=(uint64_t n) const { *c_ += n; return *this; }

        uint64_t value() const { return c_ ? c_->value() : 0; }
        bool bound() const { return c_ != nullptr; }

      private:
        friend class StatGroup;
        explicit Handle(Counter &c) : c_(&c) {}

        Counter *c_ = nullptr;
    };

    explicit StatGroup(std::string name = "");

    /** Find-or-create a counter with the given name. */
    Counter &counter(const std::string &name);

    /**
     * Find-or-create a counter and return a pre-resolved Handle to
     * it: the string key is paid once, at construction time.
     */
    Handle handle(const std::string &name) { return Handle(counter(name)); }

    /**
     * Register an external counter: a plain integer the owner bumps
     * directly on its hot path. The group reads it through the
     * pointer in get()/hasCounter()/dump() and zeroes it in reset().
     * `value` must outlive the group.
     */
    void link(const std::string &name, uint64_t &value);

    /** Find-or-create a distribution with the given name. */
    Distribution &distribution(const std::string &name);

    /** Counter value, or 0 if the counter was never created. */
    uint64_t get(const std::string &name) const;

    /** Distribution lookup; panics if absent. */
    const Distribution &getDistribution(const std::string &name) const;

    bool hasCounter(const std::string &name) const;

    /** Print all stats, one per line, prefixed with the group name. */
    void dump(std::ostream &os) const;

    /** Zero every registered stat. */
    void reset();

    const std::string &name() const { return name_; }

    /**
     * The checkpoint field list (common/checkpoint.hh): the owned
     * counters and the distributions. Linked counters are their
     * owners' fields.
     */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar(self.counters, self.distributions);
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters;
    std::map<std::string, uint64_t *> external;
    std::map<std::string, Distribution> distributions;
};

} // namespace slip

#endif // SLIPSTREAM_COMMON_STATS_HH
