/**
 * @file
 * The reverse dataflow graph (R-DFG) the IR-detector builds over each
 * trace (paper §2.1.2). Nodes are the trace's instructions; edges run
 * from producers to consumers *within the same trace* (back-
 * propagation is confined to a trace, §2.1.3). When a triggering
 * condition selects an instruction for removal, selection status
 * back-propagates: a producer is selected once it has been killed,
 * every consumer is known, all consumers are selected, and all lie in
 * the same trace.
 */

#ifndef SLIPSTREAM_SLIPSTREAM_RDFG_HH
#define SLIPSTREAM_SLIPSTREAM_RDFG_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "slipstream/removal.hh"

namespace slip
{

/**
 * Back-propagation circuitry for one trace. Storage is fixed, so the
 * detector reuses one graph per scope slot instead of allocating.
 */
class Rdfg
{
  public:
    /** Begin a trace of `numSlots` instructions. */
    explicit Rdfg(unsigned numSlots = 0);

    /** Begin a new trace of `numSlots` instructions in place. */
    void reset(unsigned numSlots);

    /**
     * Declare slot eligibility: instructions with irreversible side
     * effects (HALT, output, indirect jumps) are never removable.
     */
    void setRemovable(unsigned slot, bool removable);

    /**
     * Add a same-trace dataflow edge producer -> consumer. A consumer
     * has at most three: two source registers and one load. Repeated
     * edges (both sources naming one producer) are kept, so consumer
     * counts stay exact.
     */
    void addEdge(unsigned producer, unsigned consumer);

    /** The producer has a consumer beyond this trace: pins it. */
    void markExternalConsumer(unsigned producer);

    /**
     * Triggering condition hit (branch / unreferenced write /
     * non-modifying write): select the slot and back-propagate.
     */
    void select(unsigned slot, uint8_t reasons);

    /**
     * The slot's written value was overwritten — its consumer set is
     * now complete; removal may propagate to it.
     */
    void kill(unsigned slot);

    bool selected(unsigned slot) const { return nodes[slot].selected; }
    uint8_t reasons(unsigned slot) const { return nodes[slot].reasons; }

    unsigned numSlots() const { return numSlots_; }

    /** Removal bit vector over the slots (bit i = slot i selected). */
    uint64_t irVec() const;

    /** Per-slot reason masks, aligned with irVec(), into `out`. */
    void reasonVector(SlotReasons &out) const;

    /**
     * The checkpoint field list (common/checkpoint.hh): the trace's
     * own slots only, as reset() initialises them.
     */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar(self.numSlots_);
        SLIP_ASSERT(self.numSlots_ <= kMaxPlanSlots, "rdfg of ",
                    self.numSlots_, " slots");
        for (unsigned i = 0; i < self.numSlots_; ++i)
            ar(self.nodes[i]);
    }

  private:
    struct Node
    {
        bool removable = true;
        bool selected = false;
        bool killed = false;
        bool externalConsumer = false;
        uint8_t reasons = 0;
        uint8_t inheritedReasons = 0; // union of selected consumers'
        uint8_t numProducers = 0;
        std::array<uint8_t, 3> producers{};
        uint16_t consumers = 0;
        uint16_t selectedConsumers = 0;
    };

    void tryPropagate(unsigned slot);

    std::array<Node, kMaxPlanSlots> nodes;
    unsigned numSlots_ = 0;
};

} // namespace slip

#endif // SLIPSTREAM_SLIPSTREAM_RDFG_HH
