/**
 * @file
 * Campaign trials share their fault-free prefix.
 *
 * Every campaign fault sits at dynamic index W = faultWindowStart(N) or
 * later, so every trial of a workload first re-simulates the same
 * fault-free run up to W. The cache keeps one checkpoint of that run
 * per (program, params) pair, taken at the boundary before c*, the
 * first cycle at whose end the R-stream walk or the A-stream walk has
 * reached W: no fault can fire before c*, so a trial restored there
 * matches its cold run byte for byte.
 *
 * No extra fault-free run builds it. The first eligible trial of a
 * pair runs cold and notes c*; the next advances to c*, captures, then
 * arms its own plans and goes on; later trials restore. A trial with a
 * plan below W, a traced trial (its trace starts at cycle 0) and a
 * trial whose cycle cap does not pass c* run cold.
 *
 * The cache is process-wide and thread-safe (SimJobRunner's threads
 * race on a pair's first trials), holds at most kCapacity pairs, and
 * under fork isolation each worker process builds its own.
 */

#ifndef SLIPSTREAM_HARNESS_CHECKPOINT_CACHE_HH
#define SLIPSTREAM_HARNESS_CHECKPOINT_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sim_runner.hh"

namespace slip
{

class CheckpointCache
{
  public:
    /** Pairs held at once; the least recently used one goes first. */
    static constexpr size_t kCapacity = 16;

    /** What the cache has done, for tests and reports. */
    struct Counts
    {
        uint64_t built = 0;          // checkpoints captured
        uint64_t warmStarts = 0;     // trials restored from one
        uint64_t cyclesRestored = 0; // cycles those trials skipped
        uint64_t bytesHeld = 0;      // checkpoint bytes held now
    };

    /** The process-wide instance campaign trials use. */
    static CheckpointCache &global();

    /**
     * Run one trial of `entry`'s program under `params` with `plans`
     * armed, as runSlipstream() would, starting from the pair's
     * checkpoint when it can (see the file comment). `shareable`
     * false runs it cold.
     */
    RunMetrics runTrial(const ProgramCache::Entry &entry,
                        const SlipstreamParams &params,
                        const std::vector<FaultPlan> &plans,
                        Cycle maxCycles, const CancelToken *cancel,
                        bool shareable);

    Counts counts() const;

    /** Drop every checkpoint (tests start from an empty cache). */
    void clear();

  private:
    /** One (program, params) pair. */
    struct Slot
    {
        const ProgramCache::Entry *entry = nullptr;
        SlipstreamParams params;
        std::optional<Cycle> windowCycle; // c*, once a cold trial saw it
        bool building = false;            // a trial is capturing at c*
        std::shared_ptr<const std::string> checkpoint;
    };

    /** The pair's slot, made most recently used (mu_ held). */
    Slot &slotFor(const ProgramCache::Entry &entry,
                  const SlipstreamParams &params);

    /** The pair's slot if it is still held, else nullptr (mu_ held). */
    Slot *find(const ProgramCache::Entry &entry,
               const SlipstreamParams &params);

    /**
     * End the pair's capture: hold `checkpoint`, or with nullptr leave
     * the capture to a later trial.
     */
    void publish(const ProgramCache::Entry &entry,
                 const SlipstreamParams &params,
                 std::shared_ptr<const std::string> checkpoint);

    mutable std::mutex mu_;
    std::list<Slot> slots_; // most recently used first
    Counts counts_;
};

} // namespace slip

#endif // SLIPSTREAM_HARNESS_CHECKPOINT_CACHE_HH
