#include "slipstream/delay_buffer.hh"

#include "common/invariant.hh"
#include "common/logging.hh"
#include "obs/trace_session.hh"

namespace slip
{

namespace
{

/**
 * Full FIFO consistency walk (fuzz/debug only): the occupancy
 * counters must equal what the packets actually hold, occupancy must
 * respect Table 2 capacities, and packet numbers must stay strictly
 * monotonic (FIFO order is the delay buffer's whole contract).
 */
void
checkFifoInvariants([[maybe_unused]] const Ring<Packet> &packets,
                    [[maybe_unused]] unsigned dataEntries,
                    [[maybe_unused]] const DelayBufferParams &params)
{
#ifndef SLIPSTREAM_DISABLE_INVARIANTS
    uint64_t summed = 0;
    uint64_t lastNum = 0;
    bool first = true;
    for (size_t i = 0; i < packets.size(); ++i) {
        const Packet &p = packets[i];
        unsigned executed = 0;
        for (const PacketSlot &slot : p.slots)
            executed += slot.executedInA ? 1 : 0;
        SLIP_INVARIANT(executed == p.executedCount,
                       "packet ", p.num, " claims ", p.executedCount,
                       " executed slots but holds ", executed);
        summed += p.executedCount;
        SLIP_INVARIANT(first || p.num > lastNum,
                       "packet numbers not monotonic: ", lastNum,
                       " then ", p.num);
        lastNum = p.num;
        first = false;
    }
    SLIP_INVARIANT(summed == dataEntries, "data-entry counter ",
                   dataEntries, " != summed executed slots ", summed);
    SLIP_INVARIANT(packets.size() <= params.controlCapacity,
                   "control occupancy ", packets.size(),
                   " exceeds capacity ", params.controlCapacity);
    SLIP_INVARIANT(dataEntries <= params.dataCapacity,
                   "data occupancy ", dataEntries, " exceeds capacity ",
                   params.dataCapacity);
#endif // SLIPSTREAM_DISABLE_INVARIANTS
}

} // namespace

DelayBuffer::DelayBuffer(const DelayBufferParams &params)
    : params_(params), stats_("delay_buffer")
{
}

bool
DelayBuffer::canPush(unsigned executedCount) const
{
    return packets.size() < params_.controlCapacity &&
           dataEntries_ + executedCount <= params_.dataCapacity;
}

void
DelayBuffer::push(Packet &packet)
{
    SLIP_ASSERT(canPush(packet.executedCount),
                "delay buffer overflow: control ", packets.size(), "/",
                params_.controlCapacity, ", data ", dataEntries_, "+",
                packet.executedCount, "/", params_.dataCapacity);
    dataEntries_ += packet.executedCount;
    if (!controlOccupancy) {
        controlOccupancy = &stats_.distribution("control_occupancy");
        dataOccupancy = &stats_.distribution("data_occupancy");
    }
    controlOccupancy->sample(packets.size() + 1);
    dataOccupancy->sample(dataEntries_);
    ++statPackets;
    SLIP_TRACE(obs::Category::DelayBuffer, obs::Name::ControlOccupancy,
               obs::Phase::Counter, packets.size() + 1, 0);
    SLIP_TRACE(obs::Category::DelayBuffer, obs::Name::DataOccupancy,
               obs::Phase::Counter, dataEntries_, 0);
    std::swap(packets.pushBack(), packet);
    if (SLIP_INVARIANTS_ACTIVE())
        checkFifoInvariants(packets, dataEntries_, params_);
}

const Packet &
DelayBuffer::front() const
{
    SLIP_ASSERT(!packets.empty(), "front() on empty delay buffer");
    return packets.front();
}

void
DelayBuffer::pop(Packet &out)
{
    SLIP_ASSERT(!packets.empty(), "pop() on empty delay buffer");
    std::swap(out, packets.front());
    packets.popFront();
    SLIP_ASSERT(dataEntries_ >= out.executedCount,
                "delay buffer data-entry underflow");
    dataEntries_ -= out.executedCount;
    SLIP_TRACE(obs::Category::DelayBuffer, obs::Name::ControlOccupancy,
               obs::Phase::Counter, packets.size(), 0);
    SLIP_TRACE(obs::Category::DelayBuffer, obs::Name::DataOccupancy,
               obs::Phase::Counter, dataEntries_, 0);
    if (SLIP_INVARIANTS_ACTIVE())
        checkFifoInvariants(packets, dataEntries_, params_);
}

void
DelayBuffer::clear()
{
    SLIP_TRACE(obs::Category::DelayBuffer, obs::Name::DelayBufferFlush,
               obs::Phase::Instant, packets.size(), dataEntries_);
    packets.clear();
    dataEntries_ = 0;
    ++statFlushes;
    SLIP_TRACE(obs::Category::DelayBuffer, obs::Name::ControlOccupancy,
               obs::Phase::Counter, 0, 0);
    SLIP_TRACE(obs::Category::DelayBuffer, obs::Name::DataOccupancy,
               obs::Phase::Counter, 0, 0);
}

} // namespace slip
