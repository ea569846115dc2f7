#include "detect/replay_backend.hh"

#include "assembler/program.hh"
#include "func/executor.hh"
#include "isa/regnames.hh"

namespace slip
{

ReplayBackend::ReplayBackend(const Program &program,
                             FaultInjector &injector)
    : DetectionBackend(injector), program_(program), port_(shadowMem_),
      shadow_(port_)
{
    program_.loadInto(shadowMem_);
    shadow_.setPc(program_.entry());
    shadow_.writeReg(reg::sp, layout::kStackTop);
    pending_.reserve(kWindow);
}

void
ReplayBackend::onRetire(const DynInst &d, Cycle now)
{
    pending_.push_back(Entry{d.pc, *d.exec}); // outlives d.exec
    if (pending_.size() >= kWindow)
        flushWindow(now);
}

void
ReplayBackend::onSuspicion(Cycle now)
{
    flushWindow(now);
}

void
ReplayBackend::onDegrade(const ArchState &resume, const Memory &mem,
                         Cycle now)
{
    // Validate what retired before the gap, then resync: the degrade
    // flush discarded walked-but-unretired instructions whose
    // architectural effects are already in `resume`/`mem`, so the
    // shadow can only rejoin the leader by adopting that state.
    flushWindow(now);
    shadow_.copyRegsFrom(resume);
    shadow_.setPc(resume.pc());
    shadowMem_ = mem.clone();
}

void
ReplayBackend::finish(Cycle now)
{
    flushWindow(now);
}

void
ReplayBackend::flushWindow(Cycle now)
{
    if (pending_.empty())
        return;
    for (const Entry &e : pending_)
        replayOne(e, now);
    stats_.replays += 1;
    stats_.replayedInsts += pending_.size();
    stats_.checked += pending_.size();
    stats_.overheadCycles += (pending_.size() + kWidth - 1) / kWidth;
    pending_.clear();
}

void
ReplayBackend::replayOne(const Entry &e, Cycle now)
{
    shadow_.setPc(e.pc);
    ExecResult got;
    executeMicro(shadow_, program_.microAt(e.pc), nullptr, got);

    bool mismatch = got.nextPc != e.exec.nextPc;
    if (got.wroteReg != e.exec.wroteReg ||
        (got.wroteReg && (got.destReg != e.exec.destReg ||
                          got.destValue != e.exec.destValue))) {
        mismatch = true;
    }
    if (got.isMem != e.exec.isMem ||
        (got.isMem && (got.memAddr != e.exec.memAddr ||
                       got.memBytes != e.exec.memBytes))) {
        mismatch = true;
    }
    if (got.isMem && e.exec.isMem && !got.wroteReg &&
        got.storeValue != e.exec.storeValue) {
        mismatch = true;
    }
    if (!mismatch)
        return;

    reportMismatch(now);

    // Resync the shadow onto the leader's (authoritative, possibly
    // fault-propagated) retirement values so one corruption front
    // costs one mismatch instead of one per dependent instruction.
    // A stray shadow store the leader didn't make is left in place —
    // an accepted modeling artifact; the next load of that cell
    // resyncs it the same way.
    if (e.exec.wroteReg)
        shadow_.writeReg(e.exec.destReg, e.exec.destValue);
    if (e.exec.isMem) {
        if (e.exec.wroteReg) {
            // Load: heal the shadow cell with what the leader read.
            shadow_.mem().write(e.exec.memAddr, e.exec.memBytes,
                                e.exec.loadedValue);
        } else {
            // Store: land the leader's value at the leader's address.
            shadow_.mem().write(e.exec.memAddr, e.exec.memBytes,
                                e.exec.storeValue);
        }
    }
}

} // namespace slip
