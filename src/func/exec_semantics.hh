/**
 * @file
 * Shared arithmetic edge-case semantics (RISC-V-style division and
 * high multiply). The reference executor, executeMicro and the block
 * engine must agree bit-for-bit, so the helpers live in one header.
 */

#ifndef SLIPSTREAM_FUNC_EXEC_SEMANTICS_HH
#define SLIPSTREAM_FUNC_EXEC_SEMANTICS_HH

#include <limits>

#include "common/types.hh"

namespace slip
{

/** Signed division with RISC-V-style edge-case semantics. */
inline Word
divSigned(Word a, Word b)
{
    const SWord sa = static_cast<SWord>(a);
    const SWord sb = static_cast<SWord>(b);
    if (sb == 0)
        return ~0ull; // all ones
    if (sa == std::numeric_limits<SWord>::min() && sb == -1)
        return a; // overflow: quotient = dividend
    return static_cast<Word>(sa / sb);
}

inline Word
remSigned(Word a, Word b)
{
    const SWord sa = static_cast<SWord>(a);
    const SWord sb = static_cast<SWord>(b);
    if (sb == 0)
        return a;
    if (sa == std::numeric_limits<SWord>::min() && sb == -1)
        return 0;
    return static_cast<Word>(sa % sb);
}

inline Word
mulHigh(Word a, Word b)
{
    const __int128 p = static_cast<__int128>(static_cast<SWord>(a)) *
                       static_cast<__int128>(static_cast<SWord>(b));
    return static_cast<Word>(static_cast<unsigned __int128>(p) >> 64);
}

} // namespace slip

#endif // SLIPSTREAM_FUNC_EXEC_SEMANTICS_HH
