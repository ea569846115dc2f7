#include "detect/checker_backend.hh"

#include "assembler/program.hh"
#include "func/executor.hh"
#include "isa/regnames.hh"

namespace slip
{

CheckerBackend::CheckerBackend(const DetectParams &params,
                               const Program &program,
                               FaultInjector &injector)
    : DetectionBackend(injector), program_(program),
      bandwidth_(params.checkerBandwidth ? params.checkerBandwidth : 1),
      queue_(params.checkerQueue ? params.checkerQueue : 1),
      checker_(feed_)
{
    checker_.setPc(program_.entry());
    checker_.writeReg(reg::sp, layout::kStackTop);
}

void
CheckerBackend::onRetire(const DynInst &d, Cycle now)
{
    // Claim the next free checker slot; the validation verdict lands
    // at `done`, which is when any mismatch becomes architectural
    // knowledge (checker lag == detection latency). The leader's
    // effective clock includes every stall already charged: a full
    // queue delays the leader, which spaces out later retires, so
    // the backlog stays pinned near the queue depth instead of
    // compounding.
    const Cycle vnow = now + stats_.overheadCycles;
    const uint64_t nowUnits = vnow * uint64_t(bandwidth_);
    busyUntilUnits_ =
        (busyUntilUnits_ > nowUnits ? busyUntilUnits_ : nowUnits) + 1;
    const Cycle done =
        (busyUntilUnits_ + bandwidth_ - 1) / bandwidth_;
    const uint64_t backlog = done > vnow ? done - vnow : 0;
    if (backlog > queue_)
        stats_.overheadCycles += backlog - queue_; // leader stalled

    const ExecResult &leader = *d.exec;
    feed_.feedValue = leader.loadedValue;
    feed_.sawStore = false;
    checker_.setPc(d.pc);
    ExecResult got;
    executeMicro(checker_, program_.microAt(d.pc), nullptr, got);
    ++stats_.checked;

    bool mismatch = got.nextPc != leader.nextPc;
    if (got.wroteReg != leader.wroteReg ||
        (got.wroteReg && (got.destReg != leader.destReg ||
                          got.destValue != leader.destValue))) {
        mismatch = true;
    }
    // The access address is a register *use* even for loads (whose
    // value the checker takes on trust): a corrupt address register
    // must surface here or never.
    if (got.isMem != leader.isMem ||
        (got.isMem && (got.memAddr != leader.memAddr ||
                       got.memBytes != leader.memBytes))) {
        mismatch = true;
    }
    const bool leaderStored = leader.isMem && !leader.wroteReg;
    if (feed_.sawStore != leaderStored ||
        (feed_.sawStore && (feed_.sawAddr != leader.memAddr ||
                            feed_.sawBytes != leader.memBytes ||
                            feed_.sawValue != leader.storeValue))) {
        mismatch = true;
    }
    if (!mismatch)
        return;

    reportMismatch(done);

    // Adopt the leader's retirement values so a single corruption
    // front costs one mismatch, then keep checking downstream.
    if (leader.wroteReg)
        checker_.writeReg(leader.destReg, leader.destValue);
}

void
CheckerBackend::onSuspicion(Cycle)
{
    // Recoveries repair the A-stream, not the retired stream the
    // checker follows; nothing to do.
}

void
CheckerBackend::onDegrade(const ArchState &resume, const Memory &,
                          Cycle)
{
    // The degrade flush opened a retired-stream gap; rejoin the
    // leader at its authoritative register state. The checker clock
    // keeps running — its backlog is real work already accepted.
    checker_.copyRegsFrom(resume);
    checker_.setPc(resume.pc());
}

void
CheckerBackend::finish(Cycle now)
{
    // Drain lag: validations still in flight past the (stall-
    // adjusted) end of run.
    const Cycle vnow = now + stats_.overheadCycles;
    const Cycle drained =
        (busyUntilUnits_ + bandwidth_ - 1) / bandwidth_;
    if (drained > vnow)
        stats_.overheadCycles += drained - vnow;
}

} // namespace slip
