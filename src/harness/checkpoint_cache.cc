#include "harness/checkpoint_cache.hh"

#include <algorithm>

#include "harness/fault_campaign.hh"

namespace slip
{

CheckpointCache &
CheckpointCache::global()
{
    static CheckpointCache cache;
    return cache;
}

CheckpointCache::Slot *
CheckpointCache::find(const ProgramCache::Entry &entry,
                      const SlipstreamParams &params)
{
    for (Slot &s : slots_) {
        if (s.entry == &entry && s.params == params)
            return &s;
    }
    return nullptr;
}

CheckpointCache::Slot &
CheckpointCache::slotFor(const ProgramCache::Entry &entry,
                         const SlipstreamParams &params)
{
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
        if (it->entry == &entry && it->params == params) {
            slots_.splice(slots_.begin(), slots_, it);
            return slots_.front();
        }
    }
    if (slots_.size() == kCapacity) {
        // A trial still capturing for the evicted pair finds it gone
        // when it publishes, and drops its checkpoint.
        if (slots_.back().checkpoint)
            counts_.bytesHeld -= slots_.back().checkpoint->size();
        slots_.pop_back();
    }
    Slot &s = slots_.emplace_front();
    s.entry = &entry;
    s.params = params;
    return s;
}

RunMetrics
CheckpointCache::runTrial(const ProgramCache::Entry &entry,
                          const SlipstreamParams &params,
                          const std::vector<FaultPlan> &plans,
                          Cycle maxCycles, const CancelToken *cancel,
                          bool shareable)
{
    SlipstreamSim sim(entry.program, params);
    FaultInjector &injector = sim.proc().faultInjector();
    const uint64_t window = faultWindowStart(entry.goldenInstCount);
    shareable = shareable &&
                std::all_of(plans.begin(), plans.end(),
                            [&](const FaultPlan &p) {
                                return p.dynIndex >= window;
                            });
    const auto passes = [&](Cycle c) {
        return maxCycles == 0 || c < maxCycles;
    };

    enum class Start : uint8_t { Cold, Note, Build, Restore };
    Start start = Start::Cold;
    Cycle at = 0;
    std::shared_ptr<const std::string> checkpoint;
    if (shareable) {
        std::lock_guard<std::mutex> lock(mu_);
        Slot &s = slotFor(entry, params);
        if (!s.windowCycle) {
            start = Start::Note;
        } else if (passes(*s.windowCycle) && s.checkpoint) {
            start = Start::Restore;
            at = *s.windowCycle;
            checkpoint = s.checkpoint;
            ++counts_.warmStarts;
            counts_.cyclesRestored += at;
        } else if (passes(*s.windowCycle) && !s.building) {
            start = Start::Build;
            at = *s.windowCycle;
            s.building = true;
        }
    }

    switch (start) {
      case Start::Cold:
        break;
      case Start::Note: {
        // Plans all sit at or past the window, so none fires before
        // c*: arming now changes nothing the prefix does.
        injector.arm(plans);
        const std::optional<Cycle> c =
            sim.proc().runUntilWalked(window, maxCycles, cancel);
        if (c) {
            std::lock_guard<std::mutex> lock(mu_);
            if (Slot *s = find(entry, params)) {
                SLIP_ASSERT(!s->windowCycle || *s->windowCycle == *c,
                            "fault window opened at cycle ", *c,
                            " and at cycle ", *s->windowCycle);
                s->windowCycle = c;
            }
        }
        return sim.finish(entry.golden, maxCycles, cancel);
      }
      case Start::Build: {
        std::shared_ptr<const std::string> built;
        try {
            if (sim.proc().runUntil(at, maxCycles, cancel) &&
                !sim.proc().degraded()) {
                std::string bytes = sim.capture();
                bytes.shrink_to_fit();
                built = std::make_shared<const std::string>(
                    std::move(bytes));
            }
        } catch (...) {
            publish(entry, params, nullptr); // let a later trial build
            throw;
        }
        publish(entry, params, std::move(built));
        break;
      }
      case Start::Restore:
        sim.restore(*checkpoint);
        break;
    }
    injector.arm(plans);
    return sim.finish(entry.golden, maxCycles, cancel);
}

void
CheckpointCache::publish(const ProgramCache::Entry &entry,
                         const SlipstreamParams &params,
                         std::shared_ptr<const std::string> checkpoint)
{
    std::lock_guard<std::mutex> lock(mu_);
    Slot *s = find(entry, params);
    if (!s)
        return; // evicted or cleared while it was being built
    s->building = false;
    if (checkpoint) {
        counts_.bytesHeld += checkpoint->size();
        ++counts_.built;
        s->checkpoint = std::move(checkpoint);
    }
}

CheckpointCache::Counts
CheckpointCache::counts() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
}

void
CheckpointCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    slots_.clear();
    counts_.bytesHeld = 0;
}

} // namespace slip
