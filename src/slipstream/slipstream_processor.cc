#include "slipstream/slipstream_processor.hh"

#include "common/invariant.hh"
#include "common/logging.hh"
#include "obs/trace_session.hh"
#include "slipstream/removal.hh"

namespace slip
{

SlipstreamProcessor::SlipstreamProcessor(const Program &program,
                                         const SlipstreamParams &params)
    : SlipstreamProcessor(program, params,
                          std::make_unique<IRPredictor>(params.irPred))
{
}

SlipstreamProcessor::SlipstreamProcessor(
    const Program &program, const SlipstreamParams &params,
    std::unique_ptr<IRPredictor> irPredictor)
    : params_(params), program(program),
      tracePred(std::make_unique<TracePredictor>(params.tracePred)),
      irPred(std::move(irPredictor)), delayBuffer_(params.delayBuffer),
      recovery_(std::make_unique<RecoveryController>(rMem,
                                                     params.recovery)),
      detector_(std::make_unique<IRDetector>(params.detector, *irPred))
{
    program.loadInto(rMem);
    aSource_ = std::make_unique<AStreamSource>(
        program, *tracePred, *irPred, *recovery_, delayBuffer_,
        params_.aCore.fetchWidth, params_.tracePolicy);
    rSource_ = std::make_unique<RStreamSource>(
        program, rMem, delayBuffer_, params_.rCore.fetchWidth);
    rFront_.inner = rSource_.get();
    aCore_ = std::make_unique<OoOCore>(params_.aCore, *aSource_);
    rCore_ = std::make_unique<OoOCore>(params_.rCore, rFront_);
    rSource_->faultInjector = &faultInjector_;
    aSource_->faultInjector = &faultInjector_;
    wire();
}

void
SlipstreamProcessor::wire()
{
    aCore_->onRetire = [this](const DynInst &d, Cycle) {
        aSource_->notifyRetire(d);
        return true;
    };

    rCore_->onRetire = [this](const DynInst &d, Cycle cycle) {
        // The observer reads d.exec, which lives in the retire record
        // notifyRetire may release: observe first.
        if (onArchRetire)
            onArchRetire(d, cycle);
        rSource_->notifyRetire(d);

        // Recovery-controller store tracking (paper Figure 4).
        if (d.si->isStore()) {
            if (d.valuePredicted) {
                recovery_->onRStoreRetired(d.memAddr, d.memBytes);
            } else {
                recovery_->onSkippedStoreRetired(d.packetSeq, d.memAddr,
                                                 d.memBytes);
            }
        }

        // Removal accounting over validated (retired) instructions:
        // a single array increment, indexed by the reason mask (names
        // are derived once, when results are assembled).
        if (!d.valuePredicted) {
            ++removedSlots;
            ++removedByReasonMask_[d.removalReason &
                                   (kNumReasonMasks - 1)];
        }

        if (d.triggersRecovery) {
            recoveryRequested = true;
            // A removed conditional branch whose presumed direction
            // proved wrong corrupts the A-stream *path*, not its
            // data context computations: the removal itself was
            // sound, so its confidence survives the recovery.
            recoveryCause =
                (!d.valuePredicted && d.si->isCondBranch())
                    ? RecoveryCause::RemovedBranchMispredict
                    : RecoveryCause::CorruptContextUnknown;
        }
        return true;
    };

    rSource_->onPacketRetired = [this](const Packet &packet,
                                       const std::vector<ExecResult>
                                           &rExec) {
        const PathHistory historyBefore = trainerHistory;
        tracePred->update(trainerHistory, packet.actualId);
        trainerHistory.push(packet.actualId);
        detector_->processTrace(
            RetiredTrace{&packet, &rExec, &historyBefore});
    };

    detector_->onIRMispredict = [this](uint64_t) {
        recoveryRequested = true;
        // The detector already reset the offending entry's
        // confidence; no need to nuke everything.
        recoveryCause = RecoveryCause::CorruptContextKnown;
    };

    detector_->onTraceVerified = [this](uint64_t packetNum) {
        recovery_->onTraceVerified(packetNum);
    };
}

void
SlipstreamProcessor::doRecovery(Cycle now)
{
    recoveryRequested = false;
    ++irMispredicts;
    switch (recoveryCause) {
      case RecoveryCause::RemovedBranchMispredict:
        ++statRemovedBranchMispredict;
        break;
      case RecoveryCause::CorruptContextKnown:
        ++statIrvecCheck;
        break;
      case RecoveryCause::CorruptContextUnknown:
        ++statValueMismatch;
        break;
      case RecoveryCause::WatchdogStall:
        ++statWatchdogStall;
        break;
      case RecoveryCause::None:
        ++statUnclassified;
        break;
    }
    const RecoveryCause cause = recoveryCause;

    // Repair the A-stream memory context (functionally: collapse the
    // overlay onto the authoritative image) and charge the latency.
    const Cycle latency = recovery_->recover();
    irPenaltyTotal += latency;
    const Cycle resume = now + latency;
    SLIP_TRACE_AT(obs::Category::Recovery, obs::Name::RecoverySpan,
                  obs::Phase::Begin, now,
                  static_cast<uint64_t>(cause), latency);
    SLIP_TRACE_AT(obs::Category::Recovery, obs::Name::RecoverySpan,
                  obs::Phase::End, resume,
                  static_cast<uint64_t>(cause), latency);

    // A-stream: full flush and restart at the R-stream's precise point.
    aCore_->flush(now, resume);
    aSource_->recover(rSource_->archState().pc(), rSource_->archState(),
                      trainerHistory);

    // Postcondition (paper §2.3): recovery restores the A-stream's
    // *exact* architectural state — registers and PC equal the
    // R-stream's, and the memory overlay collapsed onto the
    // authoritative image (nothing tracked means every A read now
    // sees R memory byte-for-byte).
    SLIP_INVARIANT(recovery_->trackedAddresses() == 0,
                   "recovery left ", recovery_->trackedAddresses(),
                   " tracked addresses in the overlay/do set");
    SLIP_INVARIANT(
        aSource_->archState().regsEqual(rSource_->archState()),
        "A-stream registers differ from R-stream after recovery");
    SLIP_INVARIANT(aSource_->archState().pc() ==
                       rSource_->archState().pc(),
                   "A-stream pc ", aSource_->archState().pc(),
                   " != R-stream pc ", rSource_->archState().pc(),
                   " after recovery");

    // R-stream: its context was never wrong; older in-flight
    // instructions drain normally while fetch waits out the repair.
    rCore_->stallFetchUntil(resume);
    rSource_->recover();

    delayBuffer_.clear();
    // The IR-detector's state is NOT cleared: it reflects R-stream
    // retirement, which was never wrong. Traces still in its scope
    // finalize normally as post-recovery traces arrive, and keeping
    // the operand rename table's values preserves same-value-write
    // detection across recoveries (otherwise every recovery poisons
    // the next pass of each hot loop and confidence thrashes).
    if (params_.resetConfidenceOnRecovery &&
        (cause == RecoveryCause::CorruptContextUnknown ||
         cause == RecoveryCause::WatchdogStall)) {
        // The A-stream context was corrupted by a wrong removal whose
        // origin is unknown (or the watchdog fired blind):
        // conservatively drop all confidence so the wrong entry
        // cannot immediately re-trigger.
        irPred->reset();
    }
    recoveryCause = RecoveryCause::None;

    // Fault bookkeeping: the A context was just resynchronized.
    faultInjector_.onRecovery(now);
    if (onRecoveryEvent)
        onRecoveryEvent(now);

    // Graceful degradation: recoveries this dense mean the A-stream
    // is doing more harm than good — finish the program R-only.
    recentRecoveries_.push_back(now);
    while (!recentRecoveries_.empty() &&
           recentRecoveries_.front() + params_.degrade.windowCycles <
               now) {
        recentRecoveries_.pop_front();
    }
    if (params_.degrade.enabled && !degraded_ &&
        recentRecoveries_.size() >= params_.degrade.recoveryThreshold)
        degradeToROnly(now, resume);
}

void
SlipstreamProcessor::degradeToROnly(Cycle now, Cycle resume)
{
    degraded_ = true;
    degradedAtCycle_ = now;
    retiredAtDegrade_ = rCore_->retiredCount();
    ++statDegradeToROnly;
    SLIP_TRACE(obs::Category::Recovery, obs::Name::DegradeToROnly,
               obs::Phase::Instant, recentRecoveries_.size(),
               rCore_->retiredCount());
    SLIP_WARN("degrading to R-only execution at cycle ", now, " (",
              recentRecoveries_.size(), " recoveries in the last ",
              params_.degrade.windowCycles, " cycles)");

    // Shed the A-stream: its core and source are simply never ticked
    // again. Walked-but-unretired R work is discarded (walk-time
    // architectural effects are already in the R context, the model's
    // usual flush contract) and the R core refetches from a
    // conventional trace-predictor-driven source resumed from the
    // R-stream's precise context.
    delayBuffer_.clear();
    degradedSource_ = std::make_unique<TraceFetchSource>(
        program, *tracePred, rMem, rSource_->archState(),
        params_.rCore.fetchWidth, params_.tracePolicy);
    rFront_.inner = degradedSource_.get();
    rCore_->flush(now, resume);
    rCore_->onRetire = [this](const DynInst &d, Cycle cycle) {
        if (onArchRetire)
            onArchRetire(d, cycle); // before the record is released
        degradedSource_->notifyRetire(d);
        return true;
    };
    if (onDegradeEvent)
        onDegradeEvent(now);
}

bool
SlipstreamProcessor::step(Cycle maxCycles, const CancelToken *cancel)
{
    if (gaveUp_ || rCore_->halted() || (maxCycles != 0 && now_ >= maxCycles))
        return false;
    if (cancel && cancel->cancelled()) {
        cancelled_ = true;
        return false;
    }
    const Cycle now = now_;
    faultInjector_.setNow(now);
    SLIP_TRACE_SET_CYCLE(now);
    if (!degraded_ && params_.degrade.forceAtCycle != 0 &&
        now >= params_.degrade.forceAtCycle)
        degradeToROnly(now, now);
    if (degraded_) {
        rCore_->tick(now);
        // No A-stream left: late detector callbacks are moot.
        recoveryRequested = false;
    } else {
        aCore_->tick(now);
        rCore_->tick(now);
        aSource_->tryPublish();

        if (recoveryRequested)
            doRecovery(now);
    }

    if (rCore_->lastRetireCycle() > lastProgress_)
        lastProgress_ = rCore_->lastRetireCycle();
    if (now - lastProgress_ > params_.watchdog.stallCycles) {
        // Forward progress lost: a fault (or model deadlock) derailed
        // the streams. The R context is authoritative, so a forced
        // recovery restores progress for every A-side derailment;
        // give up only when trips exhaust.
        ++watchdogTrips_;
        SLIP_TRACE(obs::Category::Recovery, obs::Name::WatchdogTrip,
                   obs::Phase::Instant, watchdogTrips_,
                   now - lastProgress_);
        if (degraded_ || watchdogTrips_ > params_.watchdog.maxTrips) {
            SLIP_WARN("slipstream hung: R-stream idle since cycle ",
                      lastProgress_, " (now ", now, ", R retired ",
                      rCore_->retiredCount(), ", trips ", watchdogTrips_,
                      ")");
            gaveUp_ = true;
            return false;
        }
        recoveryRequested = false;
        recoveryCause = RecoveryCause::WatchdogStall;
        doRecovery(now);
        lastProgress_ = now;
    }
    ++now_;
    return true;
}

bool
SlipstreamProcessor::runUntil(Cycle cycle, Cycle maxCycles,
                              const CancelToken *cancel)
{
    while (now_ < cycle) {
        if (!step(maxCycles, cancel))
            return false;
    }
    return true;
}

std::optional<Cycle>
SlipstreamProcessor::runUntilWalked(uint64_t index, Cycle maxCycles,
                                    const CancelToken *cancel)
{
    do {
        if (!step(maxCycles, cancel))
            return std::nullopt;
    } while (rSource_->walkedCount() < index &&
             aSource_->walkedSlots() < index);
    return now_ - 1;
}

SlipstreamRunResult
SlipstreamProcessor::run(Cycle maxCycles, const CancelToken *cancel)
{
    while (step(maxCycles, cancel)) {
    }
    return result();
}

SlipstreamRunResult
SlipstreamProcessor::result()
{
    detector_->drain();

    // Summary counter so the Recovery track is never empty: short runs
    // may finish without a single recovery, and the acceptance contract
    // for traces includes recovery-category telemetry.
    SLIP_TRACE_AT(obs::Category::Recovery, obs::Name::RecoveriesTotal,
                  obs::Phase::Counter, now_, irMispredicts,
                  irPenaltyTotal);

    SlipstreamRunResult result;
    result.cycles = now_;
    result.rRetired = rCore_->retiredCount();
    result.aRetired = aCore_->retiredCount();
    result.output = rSource_->output();
    if (degradedSource_)
        result.output += degradedSource_->output();
    result.halted = rCore_->halted();
    result.cancelled = cancelled_;
    result.hung = !result.halted && !cancelled_;
    result.watchdogTrips = watchdogTrips_;
    result.degraded = degraded_;
    result.degradedAtCycle = degradedAtCycle_;
    result.rOnlyRetired =
        degraded_ ? rCore_->retiredCount() - retiredAtDegrade_ : 0;
    result.removedSlots = removedSlots;
    result.removedByReasonMask = removedByReasonMask_;
    result.removedByReason = reasonCountsByName(removedByReasonMask_);
    result.aBranchMispredicts = aCore_->branchMispredicts();
    result.irMispredicts = irMispredicts;
    result.irPenaltyTotal = irPenaltyTotal;
    result.faultOutcome = faultInjector_.outcome();
    return result;
}

template <typename Self, typename Ar>
void
SlipstreamProcessor::checkpointFields(Self &self, Ar &ar)
{
    // Components first, the sources before the cores: a restored
    // source re-links its own queued blocks against its restored
    // packets and records, and restore() then re-links the cores.
    ar(self.rMem, *self.tracePred, *self.irPred, self.delayBuffer_,
       *self.recovery_, *self.detector_, *self.aSource_, *self.rSource_,
       *self.aCore_, *self.rCore_, self.trainerHistory,
       self.faultInjector_);
    ar(self.recoveryRequested, self.recoveryCause, self.recoveryStats,
       self.irMispredicts, self.irPenaltyTotal, self.removedSlots,
       self.removedByReasonMask_);
    ar(self.now_, self.lastProgress_, self.watchdogTrips_, self.degraded_,
       self.degradedAtCycle_, self.retiredAtDegrade_,
       self.recentRecoveries_);
}

void
SlipstreamProcessor::capture(ckpt::Writer &out) const
{
    if (degraded_)
        SLIP_FATAL("cannot capture a processor degraded to R-only (at "
                   "cycle ", degradedAtCycle_, ")");
    SLIP_ASSERT(out.cycle() == now_, "capture opened at cycle ",
                out.cycle(), " but the processor stands at ", now_);
    checkpointFields(*this, out);
}

void
SlipstreamProcessor::restore(ckpt::Reader &in)
{
    SLIP_ASSERT(now_ == 0 && rCore_->retiredCount() == 0,
                "restore into a processor that has already run");
    checkpointFields(*this, in);
    SLIP_ASSERT(now_ == in.cycle(), "capture taken at cycle ",
                in.cycle(), " restored cycle ", now_);
    aCore_->forEachInflight([this](DynInst &d) { aSource_->relink(d); });
    rCore_->forEachInflight([this](DynInst &d) { rSource_->relink(d); });
}

} // namespace slip
