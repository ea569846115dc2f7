#include "slipstream/rdfg.hh"

#include "common/logging.hh"

namespace slip
{

Rdfg::Rdfg(unsigned numSlots)
{
    reset(numSlots);
}

void
Rdfg::reset(unsigned numSlots)
{
    SLIP_ASSERT(numSlots <= kMaxPlanSlots, "rdfg of ", numSlots,
                " slots exceeds ", kMaxPlanSlots);
    numSlots_ = numSlots;
    for (unsigned i = 0; i < numSlots; ++i)
        nodes[i] = Node{};
}

void
Rdfg::setRemovable(unsigned slot, bool removable)
{
    SLIP_ASSERT(slot < numSlots_, "rdfg slot ", slot, " out of range");
    nodes[slot].removable = removable;
}

void
Rdfg::addEdge(unsigned producer, unsigned consumer)
{
    SLIP_ASSERT(producer < numSlots_ && consumer < numSlots_,
                "rdfg edge out of range");
    SLIP_ASSERT(producer != consumer, "rdfg self edge at slot ", producer);
    Node &c = nodes[consumer];
    SLIP_ASSERT(c.numProducers < c.producers.size(), "rdfg slot ",
                consumer, " has more than ", c.producers.size(),
                " producers");
    Node &p = nodes[producer];
    ++p.consumers;
    c.producers[c.numProducers++] = static_cast<uint8_t>(producer);
    // If the consumer is already selected (e.g. a branch selected at
    // merge reads an operand — impossible in practice since edges are
    // added before selection, but keep the invariant robust).
    if (c.selected) {
        ++p.selectedConsumers;
        p.inheritedReasons |= c.reasons;
        tryPropagate(producer);
    }
}

void
Rdfg::markExternalConsumer(unsigned producer)
{
    SLIP_ASSERT(producer < numSlots_, "rdfg slot out of range");
    nodes[producer].externalConsumer = true;
}

void
Rdfg::select(unsigned slot, uint8_t reasons)
{
    SLIP_ASSERT(slot < numSlots_, "rdfg slot ", slot, " out of range");
    Node &n = nodes[slot];
    if (!n.removable)
        return;
    if (n.selected) {
        n.reasons |= reasons;
        return;
    }
    n.selected = true;
    n.reasons |= reasons;

    // Back-propagate: each producer gains one selected consumer.
    for (unsigned i = 0; i < n.numProducers; ++i) {
        const unsigned p = n.producers[i];
        Node &prod = nodes[p];
        ++prod.selectedConsumers;
        prod.inheritedReasons |= n.reasons & ~reason::kProp;
        tryPropagate(p);
    }
}

void
Rdfg::kill(unsigned slot)
{
    SLIP_ASSERT(slot < numSlots_, "rdfg slot ", slot, " out of range");
    nodes[slot].killed = true;
    tryPropagate(slot);
}

void
Rdfg::tryPropagate(unsigned slot)
{
    Node &n = nodes[slot];
    if (n.selected || !n.removable || !n.killed || n.externalConsumer)
        return;
    if (n.consumers == 0 || n.selectedConsumers != n.consumers)
        return;
    select(slot, static_cast<uint8_t>(reason::kProp |
                                      n.inheritedReasons));
}

uint64_t
Rdfg::irVec() const
{
    uint64_t vec = 0;
    for (unsigned i = 0; i < numSlots_; ++i) {
        if (nodes[i].selected)
            vec |= uint64_t(1) << i;
    }
    return vec;
}

void
Rdfg::reasonVector(SlotReasons &out) const
{
    out = SlotReasons{};
    for (unsigned i = 0; i < numSlots_; ++i)
        out.set(i, nodes[i].reasons);
}

} // namespace slip
