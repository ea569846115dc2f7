/**
 * @file
 * A 128-bit content hash: two 64-bit FNV-1a lanes over the same bytes.
 *
 * The second lane starts from the first's offset basis xor a constant
 * and walks each byte salted, which decorrelates the two. With 128
 * bits an accidental collision over any realistic number of hashed
 * items (< 2^40) is vanishingly unlikely. The serve result cache names
 * its entries with it, and ProgramCache digests each program image
 * with it once.
 */

#ifndef SLIPSTREAM_COMMON_HASH_HH
#define SLIPSTREAM_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace slip
{

/** A 128-bit hash value. */
struct Hash128
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    /** 32 lowercase hex digits, `hi` first. */
    std::string
    hex() const
    {
        char buf[33];
        std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                      static_cast<unsigned long long>(hi),
                      static_cast<unsigned long long>(lo));
        return std::string(buf, 32);
    }

    bool operator==(const Hash128 &) const = default;
};

/** Incremental two-lane FNV-1a. Integers go in little-endian. */
class Fnv128
{
  public:
    void
    put(uint8_t c)
    {
        a_ = (a_ ^ c) * kPrime;
        b_ = (b_ ^ (uint64_t(c) + 0x7f)) * kPrime;
    }

    void
    put(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i)
            put(p[i]);
    }

    void
    putU32(uint32_t v)
    {
        for (unsigned i = 0; i < 4; ++i)
            put(uint8_t(v >> (8 * i)));
    }

    void
    putU64(uint64_t v)
    {
        putU32(uint32_t(v));
        putU32(uint32_t(v >> 32));
    }

    Hash128 digest() const { return {a_, b_}; }

  private:
    static constexpr uint64_t kOffset = 0xcbf29ce484222325ULL;
    static constexpr uint64_t kPrime = 0x100000001b3ULL;

    uint64_t a_ = kOffset;
    uint64_t b_ = kOffset ^ 0x9e3779b97f4a7c15ULL;
};

} // namespace slip

#endif // SLIPSTREAM_COMMON_HASH_HH
