#include "uarch/core.hh"

#include "common/logging.hh"
#include "obs/trace_session.hh"

namespace slip
{

OoOCore::OoOCore(const CoreParams &params, FetchSource &source)
    : params_(params), source(source),
      icache_([&] {
          CacheParams c = params.icache;
          c.name = params.name + ".icache";
          return c;
      }()),
      dcache_([&] {
          CacheParams c = params.dcache;
          c.name = params.name + ".dcache";
          return c;
      }()),
      window(params.robSize + params.fetchBufferCap),
      storeReady(params.robSize), slotsUsed(kRingSize, 0),
      slotsTag(kRingSize, ~Cycle(0)),
      stats_(params.name)
{
    stats_.link("retired", retired);
    stats_.link("retired_cond_branches", numRetiredCondBranches);
    stats_.link("branch_mispredicts", numBranchMispredicts);
    stats_.link("dispatched", numDispatched);
    stats_.link("fetched", numFetched);
    stats_.link("fetch_only_removed", numFetchOnlyRemoved);
    stats_.link("flushes", numFlushes);
}

OoOCore::StoreTimes::StoreTimes(unsigned robSize)
    : maxLive(2 * size_t(robSize))
{
    // Four slots per live granule: a sweep, run when half the slots
    // are taken, keeps at most a quarter of them.
    unsigned bits = 4;
    while ((size_t(1) << bits) < 4 * maxLive)
        ++bits;
    slots.resize(size_t(1) << bits);
    mask = slots.size() - 1;
    shift = 64 - bits;
    live.reserve(maxLive);
}

size_t
OoOCore::StoreTimes::home(Addr granule) const
{
    // Fibonacci hashing: the top bits of the product.
    return static_cast<size_t>((granule * 0x9e3779b97f4a7c15ull) >> shift);
}

Cycle
OoOCore::StoreTimes::find(Addr granule) const
{
    for (size_t i = home(granule);; i = (i + 1) & mask) {
        const Slot &s = slots[i];
        if (s.readyAt == 0)
            return 0;
        if (s.granule == granule)
            return s.readyAt;
    }
}

void
OoOCore::StoreTimes::set(Addr granule, Cycle readyAt, Cycle now)
{
    // A granule has at most one entry: look along its whole probe
    // run before taking a slot, so the youngest store always wins.
    Slot *dead = nullptr;
    size_t i = home(granule);
    for (; slots[i].readyAt != 0; i = (i + 1) & mask) {
        if (slots[i].granule == granule) {
            slots[i].readyAt = readyAt;
            return;
        }
        if (!dead && slots[i].readyAt <= now)
            dead = &slots[i];
    }
    if (dead) {
        *dead = Slot{granule, readyAt};
        return;
    }
    slots[i] = Slot{granule, readyAt};
    if (++used * 2 > slots.size())
        sweep(now);
}

void
OoOCore::StoreTimes::sweep(Cycle now)
{
    live.clear();
    for (const Slot &s : slots) {
        if (s.readyAt > now)
            live.push_back(s);
    }
    SLIP_ASSERT(live.size() <= maxLive, live.size(),
                " pending store granules exceed 2 x robSize = ", maxLive);
    clear();
    for (const Slot &s : live) {
        size_t i = home(s.granule);
        while (slots[i].readyAt != 0)
            i = (i + 1) & mask;
        slots[i] = s;
    }
    used = live.size();
}

void
OoOCore::StoreTimes::clear()
{
    std::fill(slots.begin(), slots.end(), Slot{});
    used = 0;
}

Cycle
OoOCore::execLatency(const StaticInst &si) const
{
    switch (si.opClass()) {
      case OpClass::IntAlu:
        return 1;
      case OpClass::IntMult:
        return params_.intMultLat;
      case OpClass::IntDiv:
        return params_.intDivLat;
      case OpClass::Load:
        return 1; // address generation; cache access added separately
      case OpClass::Store:
        return 1; // address generation
      case OpClass::Branch:
      case OpClass::Jump:
      case OpClass::Syscall:
        return 1;
    }
    return 1;
}

Cycle
OoOCore::claimIssueSlot(Cycle earliest)
{
    Cycle c = earliest;
    while (true) {
        const size_t idx = static_cast<size_t>(c) & (kRingSize - 1);
        if (slotsTag[idx] != c) {
            slotsTag[idx] = c;
            slotsUsed[idx] = 0;
        }
        if (slotsUsed[idx] < params_.issueWidth) {
            ++slotsUsed[idx];
            return c;
        }
        ++c;
    }
}

void
OoOCore::tick(Cycle now)
{
    if (halted_)
        return;
    doRetire(now);
    doDispatch(now);
    doFetch(now);
    // Coarse per-core throughput samples; the core tag (first byte of
    // the stats name, 'a'/'r'/'c') rides in arg1 to keep the tracks
    // apart without a per-core name table.
    if ((now & 4095) == 0 && SLIP_TRACE_ACTIVE(obs::Category::Core)) {
        [[maybe_unused]] const uint64_t tag =
            params_.name.empty()
                ? '?'
                : static_cast<unsigned char>(params_.name[0]);
        SLIP_TRACE(obs::Category::Core, obs::Name::CoreRetired,
                   obs::Phase::Counter, retired, tag);
        SLIP_TRACE(obs::Category::Core, obs::Name::CoreFetched,
                   obs::Phase::Counter, numFetched, tag);
    }
}

void
OoOCore::doRetire(Cycle now)
{
    unsigned count = 0;
    while (count < params_.retireWidth && robCount > 0 &&
           window.front().at <= now) {
        const DynInst &d = window.front().d;
        if (onRetire && !onRetire(d, now))
            break; // back-pressure: retry next cycle
        ++retired;
        lastRetire = now;
        if (d.si->isCondBranch())
            ++numRetiredCondBranches;
        if (d.mispredicted)
            ++numBranchMispredicts;
        if (d.si->isHalt())
            halted_ = true;
        window.popFront();
        --robCount;
        ++count;
        if (halted_)
            return;
    }
}

void
OoOCore::doDispatch(Cycle now)
{
    unsigned count = 0;
    while (count < params_.dispatchWidth && robCount < window.size() &&
           window[robCount].at <= now && robCount < params_.robSize) {
        InflightEntry &e = window[robCount];
        const DynInst &d = e.d;
        ++count;
        ++numDispatched;

        // Operand readiness through the register scoreboard (skipped
        // entirely when the delay buffer supplies source values).
        const StaticInst &si = *d.si;
        Cycle depReady = now;
        if (!d.valuePredicted) {
            RegIndex srcs[2];
            si.srcRegs(srcs);
            for (RegIndex s : srcs) {
                if (s != kNoReg && s != kZeroReg)
                    depReady = std::max(depReady, regReady[s]);
            }
            if (si.isLoad()) {
                // Perfect disambiguation + store-to-load forwarding:
                // wait for the youngest earlier store to these bytes.
                const Addr first = d.memAddr >> 3;
                const Addr last = (d.memAddr + d.memBytes - 1) >> 3;
                for (Addr k = first; k <= last; ++k)
                    depReady = std::max(depReady, storeReady.find(k));
            }
        }

        const Cycle issueAt = claimIssueSlot(std::max(depReady, now + 1));
        Cycle completeAt = issueAt + execLatency(si);

        if (si.isLoad()) {
            completeAt += dcache_.access(d.memAddr);
        } else if (si.isStore()) {
            // Charge the access for cache state/bandwidth statistics;
            // forwarding makes the data available at address
            // generation, so dependents do not wait for the write.
            dcache_.access(d.memAddr);
            const Addr first = d.memAddr >> 3;
            const Addr last = (d.memAddr + d.memBytes - 1) >> 3;
            for (Addr k = first; k <= last; ++k)
                storeReady.set(k, completeAt, now);
        }

        if (d.wroteReg)
            regReady[d.destReg] = completeAt;

        if (d.mispredicted) {
            // The branch resolves at completion; fetch restarts on the
            // corrected path after the redirect penalty.
            fetchResumeAt =
                std::max(fetchResumeAt, completeAt + params_.redirectPenalty);
            if (fetchBlockedOnBranch && blockedBranchSeq == d.seq)
                fetchBlockedOnBranch = false;
        }

        e.at = completeAt;
        ++robCount;
    }
}

void
OoOCore::doFetch(Cycle now)
{
    if (halted_ || fetchBlockedOnBranch || now < fetchResumeAt)
        return;
    if (window.size() - robCount + params_.fetchWidth >
        params_.fetchBufferCap)
        return;

    FetchBlock &block = fetchBlock;
    block.insts.clear();
    if (!source.nextBlock(block))
        return;
    if (block.insts.empty())
        return;

    SLIP_ASSERT(block.insts.size() <= params_.fetchWidth,
                "fetch block of ", block.insts.size(),
                " exceeds fetch width ", params_.fetchWidth);

    // I-cache: charge every line the block touches; the block is
    // delivered after the slowest access (2-way interleaving fetches
    // a full block across a line boundary in one attempt).
    const unsigned lineBytes = icache_.params().lineBytes;
    const Addr firstLine = block.startAddr / lineBytes;
    const Addr lastLine =
        (block.startAddr + (block.insts.size() - 1) * kInstBytes) /
        lineBytes;
    Cycle latency = 0;
    for (Addr line = firstLine; line <= lastLine; ++line)
        latency = std::max(latency, icache_.access(line * lineBytes));
    const Cycle extra = latency > icache_.params().hitLatency
                            ? latency - icache_.params().hitLatency
                            : 0;
    if (extra > 0) {
        // A miss occupies the fetch unit until the line arrives.
        fetchResumeAt = std::max(fetchResumeAt, now + extra);
    }

    const Cycle readyAt = now + params_.fetchToDispatch + extra;
    for (const DynInst &d : block.insts) {
        ++numFetched;
        if (d.fetchOnly) {
            // Removed by the ir-vec between fetch and decode: consumes
            // fetch bandwidth only.
            ++numFetchOnlyRemoved;
            continue;
        }
        if (d.mispredicted) {
            // Sources must end a block at a mispredicted control
            // instruction: what follows is the corrected path, which
            // the front end cannot see until the branch resolves.
            SLIP_ASSERT(&d == &block.insts.back(),
                        "mispredicted instruction not last in block");
            fetchBlockedOnBranch = true;
            blockedBranchSeq = d.seq;
        }
        InflightEntry &e = window.pushBack();
        e.d = d;
        e.at = readyAt;
    }
}

void
OoOCore::flush(Cycle now, Cycle resumeFetchAt)
{
    SLIP_TRACE(obs::Category::Core, obs::Name::CoreFlush,
               obs::Phase::Instant, window.size(),
               params_.name.empty()
                   ? '?'
                   : static_cast<unsigned char>(params_.name[0]));
    window.clear();
    robCount = 0;
    regReady.fill(now);
    storeReady.clear();
    fetchBlockedOnBranch = false;
    fetchResumeAt = resumeFetchAt;
    // A flush is a full restart: an A-stream that speculatively walked
    // (and retired) a wrong-path HALT must resume after recovery.
    halted_ = false;
    ++numFlushes;
}

} // namespace slip
