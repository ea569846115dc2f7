/**
 * @file
 * Replay-based detection (RepTFD-style). The retired instruction
 * stream is buffered in windows and re-executed on the functional
 * fast path (executeMicro) against a rolling shadow register file and
 * shadow memory image. Silent architectural corruption — a
 * non-redundant R-pipeline fault or a flipped memory cell — shows up
 * the first time a dependent instruction's retired result disagrees
 * with the clean shadow recomputation.
 *
 * Windows flush when full, on every suspicion trigger (recovery of
 * any cause, including the forced watchdog recovery), and at end of
 * run. Replay cost is modeled as ceil(window / kWidth) cycles per
 * flush and charged to DetectStats::overheadCycles.
 */

#ifndef SLIPSTREAM_DETECT_REPLAY_BACKEND_HH
#define SLIPSTREAM_DETECT_REPLAY_BACKEND_HH

#include <vector>

#include "detect/detection_backend.hh"
#include "func/arch_state.hh"
#include "mem/memory.hh"

namespace slip
{

class Program;

class ReplayBackend : public DetectionBackend
{
  public:
    /** Retired instructions per replay window. */
    static constexpr uint64_t kWindow = 256;

    /** Instructions re-executed per modeled cycle. */
    static constexpr unsigned kWidth = 4;

    ReplayBackend(const Program &program, FaultInjector &injector);

    void onRetire(const DynInst &d, Cycle now) override;
    void onSuspicion(Cycle now) override;
    void onDegrade(const ArchState &resume, const Memory &mem,
                   Cycle now) override;
    void finish(Cycle now) override;

    void capture(ckpt::Writer &out) const override
    {
        checkpointFields(*this, out);
    }
    void restore(ckpt::Reader &in) override { checkpointFields(*this, in); }

  private:
    /** The shadow context and the window not yet replayed. */
    template <typename Self, typename Ar>
    static void
    checkpointFields(Self &self, Ar &ar)
    {
        ar(self.stats_, self.shadowMem_, self.shadow_, self.pending_);
    }

    struct Entry
    {
        Addr pc = 0;
        ExecResult exec; // what the leader retired
    };

    void flushWindow(Cycle now);
    void replayOne(const Entry &e, Cycle now);

    const Program &program_;

    Memory shadowMem_;
    DirectMemPort port_;
    ArchState shadow_;
    std::vector<Entry> pending_;
};

} // namespace slip

#endif // SLIPSTREAM_DETECT_REPLAY_BACKEND_HH
