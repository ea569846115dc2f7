#include "mem/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace slip
{

Cache::Cache(const CacheParams &params)
    : params_(params), stats_(params.name)
{
    stats_.link("hits", hits_);
    stats_.link("misses", misses_);
    if (!isPowerOfTwo(params_.lineBytes))
        SLIP_FATAL("cache line size must be a power of two, got ",
                   params_.lineBytes);
    if (params_.assoc == 0 || params_.sizeBytes == 0)
        SLIP_FATAL("cache size and associativity must be nonzero");
    const uint64_t linesTotal = params_.sizeBytes / params_.lineBytes;
    if (linesTotal % params_.assoc != 0)
        SLIP_FATAL("cache geometry does not divide evenly: ",
                   linesTotal, " lines, assoc ", params_.assoc);
    numSets = static_cast<unsigned>(linesTotal / params_.assoc);
    if (!isPowerOfTwo(numSets))
        SLIP_FATAL("cache set count must be a power of two, got ",
                   numSets);
    lineShift = floorLog2(params_.lineBytes);
    tagShift = lineShift + floorLog2(numSets);
    lines.resize(linesTotal);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr >> lineShift) & (numSets - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> tagShift;
}

Cycle
Cache::access(Addr addr)
{
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines[static_cast<size_t>(set) * params_.assoc];

    ++useClock;

    Line *victim = base;
    for (unsigned way = 0; way < params_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock;
            ++hits_;
            return params_.hitLatency;
        }
        if (!line.valid) {
            victim = &line; // prefer an invalid way
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock;
    ++misses_;
    return params_.hitLatency + params_.missPenalty;
}

bool
Cache::contains(Addr addr) const
{
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *base = &lines[static_cast<size_t>(set) * params_.assoc];
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (auto &line : lines)
        line.valid = false;
}

} // namespace slip
