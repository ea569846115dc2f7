#include "slipstream/recovery_controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace slip
{

namespace
{

/**
 * Split an access into its (at most two) granule pieces:
 * fn(granule, offset in granule, offset in access, bytes). Addresses
 * wrap past 2^64 exactly as a byte-at-a-time walk would.
 */
template <typename Fn>
void
forEachGranule(Addr addr, unsigned bytes, Fn &&fn)
{
    for (unsigned done = 0; done < bytes;) {
        const Addr a = addr + done;
        const unsigned off = static_cast<unsigned>(a & 7);
        const unsigned n = std::min(bytes - done, 8 - off);
        fn(a >> 3, off, done, n);
        done += n;
    }
}

uint8_t
byteOf(uint64_t value, unsigned i)
{
    return static_cast<uint8_t>(value >> (8 * i));
}

/** `word` with its byte `i` replaced by `byte`. */
uint64_t
withByte(uint64_t word, unsigned i, uint8_t byte)
{
    return (word & ~(uint64_t(0xff) << (8 * i))) | uint64_t(byte) << (8 * i);
}

} // namespace

RecoveryController::RecoveryController(Memory &rMem,
                                       const RecoveryParams &params)
    : rMem(rMem), params_(params), stats_("recovery")
{
}

uint64_t
RecoveryController::read(Addr addr, unsigned bytes)
{
    uint64_t value = rMem.read(addr, bytes);
    if (overlay.empty())
        return value;
    forEachGranule(addr, bytes, [&](Addr g, unsigned off, unsigned at,
                                    unsigned n) {
        const OverlayGranule *og = overlay.find(g);
        if (!og)
            return;
        for (unsigned i = 0; i < n; ++i)
            if (og->present >> (off + i) & 1)
                value = withByte(value, at + i, byteOf(og->value, off + i));
    });
    return value;
}

void
RecoveryController::write(Addr addr, unsigned bytes, uint64_t value)
{
    forEachGranule(addr, bytes, [&](Addr g, unsigned off, unsigned at,
                                    unsigned n) {
        // At least one byte is written, which occupies a new slot.
        OverlayGranule &og = overlay.insert(g);
        for (unsigned i = 0; i < n; ++i) {
            const unsigned b = off + i;
            og.value = withByte(og.value, b, byteOf(value, at + i));
            og.present |= uint8_t(1u << b);
            ++og.pendingStores[b];
        }
    });
}

void
RecoveryController::onRStoreRetired(Addr addr, unsigned bytes)
{
    if (overlay.empty())
        return; // already reclaimed (or recovery intervened)
    const uint64_t rValue = rMem.read(addr, bytes);
    forEachGranule(addr, bytes, [&](Addr g, unsigned off, unsigned at,
                                    unsigned n) {
        OverlayGranule *slot = overlay.find(g);
        if (!slot)
            return;
        OverlayGranule &og = *slot;
        for (unsigned i = 0; i < n; ++i) {
            const unsigned b = off + i;
            if (!(og.present >> b & 1))
                continue;
            if (og.pendingStores[b] > 0)
                --og.pendingStores[b];
            if (og.pendingStores[b] == 0 &&
                byteOf(og.value, b) == byteOf(rValue, at + i)) {
                // The streams agree and no younger A-store is in
                // flight: the undo window for this byte is closed.
                og.present &= uint8_t(~(1u << b));
            }
        }
        if (og.present == 0)
            overlay.erase(og);
    });
}

void
RecoveryController::onSkippedStoreRetired(uint64_t packetNum, Addr addr,
                                          unsigned bytes)
{
    auto &granules = doSet[packetNum];
    const Addr first = addr >> 3;
    const Addr last = (addr + bytes - 1) >> 3;
    for (Addr g = first; g <= last; ++g) {
        if (granules.insert(g).second)
            ++doSetSize;
    }
}

void
RecoveryController::onTraceVerified(uint64_t packetNum)
{
    auto it = doSet.find(packetNum);
    if (it == doSet.end())
        return;
    SLIP_ASSERT(doSetSize >= it->second.size(), "do-set size drift");
    doSetSize -= it->second.size();
    doSet.erase(it);
}

size_t
RecoveryController::trackedAddresses() const
{
    // Both sets count 8-byte granules (the paper's tracked addresses);
    // every overlay entry holds at least one live byte.
    return overlay.size() + doSetSize;
}

Cycle
RecoveryController::recover()
{
    const size_t tracked = trackedAddresses();
    stats_.distribution("tracked_at_recovery").sample(tracked);
    ++statRecoveries;

    overlay.clear();
    doSet.clear();
    doSetSize = 0;

    const unsigned regCycles =
        (kNumRegs + params_.regRestoresPerCycle - 1) /
        params_.regRestoresPerCycle;
    const unsigned memCycles =
        (static_cast<unsigned>(tracked) + params_.memRestoresPerCycle -
         1) /
        params_.memRestoresPerCycle;
    const Cycle latency = params_.startupCycles + regCycles + memCycles;
    stats_.distribution("latency").sample(latency);
    return latency;
}

} // namespace slip
