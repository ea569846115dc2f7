#include "harness/worker_pool.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

#include "common/env.hh"
#include "common/logging.hh"
#include "harness/wire.hh"
#include "obs/trace_session.hh"

namespace slip
{

const char *
isolationModeName(IsolationMode mode)
{
    switch (mode) {
      case IsolationMode::None:
        return "none";
      case IsolationMode::Fork:
        return "fork";
    }
    return "?";
}

bool
parseIsolationMode(const std::string &text, IsolationMode &mode)
{
    if (text == "none") {
        mode = IsolationMode::None;
        return true;
    }
    if (text == "fork") {
        mode = IsolationMode::Fork;
        return true;
    }
    return false;
}

IsolationMode
isolationFromEnv(IsolationMode fallback)
{
    // Strict mode-knob contract: a typo'd isolation mode would run a
    // whole campaign unsandboxed — refuse rather than guess.
    switch (envChoice("SLIPSTREAM_ISOLATION", {"none", "fork"},
                      size_t(fallback))) {
      case 1:
        return IsolationMode::Fork;
      default:
        return IsolationMode::None;
    }
}

const char *
isolatedStatusName(IsolatedOutcome::Status status)
{
    switch (status) {
      case IsolatedOutcome::Status::Ok:
        return "ok";
      case IsolatedOutcome::Status::Crashed:
        return "crashed";
      case IsolatedOutcome::Status::TimedOut:
        return "timed_out";
    }
    return "?";
}

WorkerPool::WorkerPool(WorkerPoolOptions opts) : opts_(opts) {}

namespace
{

using Clock = std::chrono::steady_clock;

/** One worker process and its supervisor-side plumbing. */
struct WorkerSlot
{
    pid_t pid = -1;
    int reqFd = -1;   // supervisor writes JobRequest frames here
    int resFd = -1;   // supervisor reads JobResult frames here
    int crashFd = -1; // crash handler's CrashNote lands here
    bool alive = false;
    bool busy = false;
    size_t job = 0;
    Clock::time_point deadline{};
};

void
closeFd(int &fd)
{
    if (fd >= 0) {
        close(fd);
        fd = -1;
    }
}

/** Calls `fn` when it goes out of scope, however the scope is left. */
template <typename Fn>
class ScopeExit
{
  public:
    explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
    ~ScopeExit() { fn_(); }

    ScopeExit(const ScopeExit &) = delete;
    ScopeExit &operator=(const ScopeExit &) = delete;

  private:
    Fn fn_;
};

/** Heartbeat slot: (trialId << 8) | phase, updated lock-free. */
std::atomic<uint64_t> *
heartbeatSlot(void *map, unsigned index)
{
    return reinterpret_cast<std::atomic<uint64_t> *>(
               static_cast<char *>(map)) +
           index;
}

/**
 * The worker child's whole life: read a request, run it, ship the
 * result, repeat until Shutdown/EOF. Never returns.
 */
[[noreturn]] void
workerMain(WorkerSlot &self, std::atomic<uint64_t> *heartbeat,
           const WorkerPool::Execute &execute)
{
    installCrashHandler(self.crashFd);
    setHeartbeatSlot(heartbeat);

    for (;;) {
        setCrashContext(0, TrialPhase::Receive);
        wire::MsgType type;
        std::string req;
        const wire::ReadResult r = wire::readFrame(self.reqFd, type, req);
        if (r != wire::ReadResult::Ok || type == wire::MsgType::Shutdown)
            _exit(0);
        if (type != wire::MsgType::JobRequest)
            _exit(112); // protocol confusion: supervisor will notice

        wire::Decoder dec(req);
        const uint64_t job = dec.getU64();
        const uint32_t attempt = dec.getU32();

        setCrashContext(job, TrialPhase::Setup);
        std::string result;
        try {
            result = execute(size_t(job), attempt);
        } catch (...) {
            // Execute's contract is "serialize errors, don't throw";
            // a throw here is a harness bug, reported as an exit-code
            // death so the supervisor still only loses this trial.
            _exit(111);
        }

        setCrashContext(job, TrialPhase::Report);
        wire::Encoder enc;
        enc.putU64(job);
        enc.putString(result);
        if (!wire::writeFrame(self.resFd, wire::MsgType::JobResult,
                              enc.bytes()))
            _exit(0); // supervisor went away; nothing left to do

        setCrashContext(0, TrialPhase::Idle);
    }
}

} // namespace

std::vector<IsolatedOutcome>
WorkerPool::run(size_t jobCount, const Execute &execute,
                const OnOutcome &onOutcome)
{
    std::vector<IsolatedOutcome> results(jobCount);
    if (jobCount == 0)
        return results;

    const unsigned nWorkers =
        unsigned(std::min<size_t>(opts_.workers, jobCount));

    // One shared progress word per worker slot, surviving the worker's
    // death — the triage source when the crash pipe is empty (SIGKILL).
    void *hbMap =
        mmap(nullptr, nWorkers * sizeof(std::atomic<uint64_t>),
             PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (hbMap == MAP_FAILED)
        SLIP_FATAL("worker pool: mmap of heartbeat page failed: ",
                   std::strerror(errno));

    // Workers write results into pipes the supervisor may have stopped
    // reading (e.g. mid-shutdown); a SIGPIPE must not kill either side.
    struct sigaction ignorePipe, oldPipe;
    std::memset(&ignorePipe, 0, sizeof(ignorePipe));
    ignorePipe.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ignorePipe, &oldPipe);

    std::vector<WorkerSlot> slots(nWorkers);
    unsigned spawns = 0;
    // Generous ceiling: every trial may crash to its poison limit and
    // time out once; anything past that is a respawn storm (a bug).
    const unsigned spawnBudget =
        nWorkers + unsigned(jobCount) * (kPoisonThreshold + 1);

    /** SIGKILL (optionally) + blocking waitpid; returns wait status. */
    auto reap = [&](WorkerSlot &slot, bool forceKill) -> int {
        if (forceKill)
            kill(slot.pid, SIGKILL);
        int status = 0;
        while (waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {}
        slot.alive = false;
        SLIP_TRACE(obs::Category::Worker, obs::Name::WorkerExit,
                   obs::Phase::Instant, uint64_t(slot.pid),
                   uint64_t(unsigned(status)));
        return status;
    };

    // However run() ends (every job resolved, a stop, a throw from
    // onOutcome or a fatal error), no worker outlives it: an idle one
    // is asked to exit, a busy one is killed, and both are reaped.
    const ScopeExit teardown([&] {
        for (WorkerSlot &slot : slots) {
            if (slot.alive) {
                if (!slot.busy)
                    wire::writeFrame(slot.reqFd, wire::MsgType::Shutdown,
                                     {});
                reap(slot, slot.busy);
            }
            closeFd(slot.reqFd);
            closeFd(slot.resFd);
            closeFd(slot.crashFd);
        }
        munmap(hbMap, nWorkers * sizeof(std::atomic<uint64_t>));
        sigaction(SIGPIPE, &oldPipe, nullptr);
    });

    auto spawn = [&](unsigned index) {
        WorkerSlot &slot = slots[index];
        int req[2], res[2], crash[2];
        if (pipe(req) != 0 || pipe(res) != 0 || pipe(crash) != 0)
            SLIP_FATAL("worker pool: pipe() failed: ",
                       std::strerror(errno));
        if (++spawns > spawnBudget)
            SLIP_FATAL("worker pool: respawn budget exhausted (", spawns,
                       " spawns for ", jobCount, " jobs)");
        heartbeatSlot(hbMap, index)
            ->store(0, std::memory_order_relaxed);
        const pid_t pid = fork();
        if (pid < 0)
            SLIP_FATAL("worker pool: fork() failed: ",
                       std::strerror(errno));
        if (pid == 0) {
            // Child: keep only this slot's ends; drop every fd that
            // belongs to the supervisor or to sibling workers so their
            // pipes still deliver EOF when their owners die.
            for (WorkerSlot &other : slots) {
                closeFd(other.reqFd);
                closeFd(other.resFd);
                closeFd(other.crashFd);
            }
            close(req[1]);
            close(res[0]);
            close(crash[0]);
            WorkerSlot self;
            self.reqFd = req[0];
            self.resFd = res[1];
            self.crashFd = crash[1];
            workerMain(self, heartbeatSlot(hbMap, index), execute);
        }
        close(req[0]);
        close(res[1]);
        close(crash[1]);
        slot.pid = pid;
        slot.reqFd = req[1];
        slot.resFd = res[0];
        slot.crashFd = crash[0];
        // Non-blocking so triage can ask "is there a note?" without
        // hanging on an empty pipe.
        fcntl(slot.crashFd, F_SETFL, O_NONBLOCK);
        slot.alive = true;
        slot.busy = false;
        SLIP_TRACE(obs::Category::Worker, obs::Name::WorkerSpawn,
                   obs::Phase::Instant, index, uint64_t(pid));
    };

    // Jobs dispatch in index order, so the jobs ever dispatched are
    // always [0, nextJob). Jobs [0, end) must resolve; a stop from
    // onOutcome cuts `end` to nextJob.
    size_t nextJob = 0;
    size_t end = jobCount;
    std::deque<size_t> redispatch; // crashed jobs owed another dispatch
    std::vector<unsigned> dispatches(jobCount, 0);
    size_t completed = 0;
    const auto workLeft = [&] {
        return !redispatch.empty() || nextJob < end;
    };

    auto finish = [&](size_t job, IsolatedOutcome outcome) {
        outcome.attempts = std::max(1u, dispatches[job]);
        results[job] = std::move(outcome);
        ++completed;
        if (onOutcome && !onOutcome(job, results[job]))
            end = nextJob;
    };

    /**
     * A worker died out from under us. Triage (waitpid + CrashNote +
     * heartbeat), charge its in-flight job if it had one, and decide
     * re-dispatch vs quarantine.
     */
    auto handleDeath = [&](unsigned index, bool forceKill) {
        WorkerSlot &slot = slots[index];
        const int status = reap(slot, forceKill);

        CrashNote note;
        const bool haveNote = readCrashNote(slot.crashFd, note);
        const uint64_t hb =
            heartbeatSlot(hbMap, index)->load(std::memory_order_relaxed);

        closeFd(slot.reqFd);
        closeFd(slot.resFd);
        closeFd(slot.crashFd);

        if (!slot.busy) {
            // Died between trials; nothing to charge.
            SLIP_WARN("worker ", slot.pid, " died while idle (status ",
                      status, ")");
            return;
        }
        slot.busy = false;
        const size_t job = slot.job;

        IsolatedOutcome out;
        out.status = IsolatedOutcome::Status::Crashed;
        if (WIFSIGNALED(status))
            out.signal = WTERMSIG(status);
        else if (WIFEXITED(status))
            out.exitCode = WEXITSTATUS(status);
        if (haveNote) {
            out.faultAddr = note.faultAddr;
            out.phase = TrialPhase(note.phase);
        } else {
            out.phase = TrialPhase(uint8_t(hb & 0xff));
        }

        SLIP_TRACE(obs::Category::Worker, obs::Name::WorkerCrash,
                   obs::Phase::Instant, uint64_t(out.signal),
                   uint64_t(job));

        char scratch[32];
        const std::string how =
            out.signal ? crashSignalName(out.signal, scratch,
                                         sizeof(scratch))
                       : "exit " + std::to_string(out.exitCode);
        if (dispatches[job] < kPoisonThreshold) {
            SLIP_WARN("trial ", job, " crashed (", how, ", phase ",
                      trialPhaseName(out.phase),
                      "); re-dispatching (attempt ", dispatches[job] + 1,
                      " of ", kPoisonThreshold, ")");
            SLIP_TRACE(obs::Category::Worker, obs::Name::JobRedispatch,
                       obs::Phase::Instant, uint64_t(job),
                       uint64_t(dispatches[job] + 1));
            redispatch.push_back(job);
        } else {
            out.poisoned = true;
            SLIP_WARN("trial ", job, " crashed (", how, ", phase ",
                      trialPhaseName(out.phase), ") ", dispatches[job],
                      " times — poisoned, quarantining");
            SLIP_TRACE(obs::Category::Worker, obs::Name::JobQuarantined,
                       obs::Phase::Instant, uint64_t(job),
                       uint64_t(out.signal));
            finish(job, std::move(out));
        }
    };

    /** Send the next job (a re-dispatch first) to an idle worker. */
    auto dispatch = [&](unsigned index) {
        WorkerSlot &slot = slots[index];
        const bool fresh = redispatch.empty();
        const size_t job = fresh ? nextJob : redispatch.front();
        wire::Encoder enc;
        enc.putU64(job);
        enc.putU32(dispatches[job] + 1);
        if (!wire::writeFrame(slot.reqFd, wire::MsgType::JobRequest,
                              enc.bytes())) {
            // The worker was already dead before this job reached it —
            // the job is not charged an attempt.
            handleDeath(index, true);
            return;
        }
        if (fresh)
            ++nextJob;
        else
            redispatch.pop_front();
        ++dispatches[job];
        slot.busy = true;
        slot.job = job;
        if (opts_.timeoutMs > 0)
            slot.deadline = Clock::now() +
                            std::chrono::milliseconds(opts_.timeoutMs);
    };

    for (unsigned i = 0; i < nWorkers; ++i)
        spawn(i);

    while (completed < end) {
        // Keep every live worker fed while work remains; respawn any
        // dead slot that still has a job to take.
        for (unsigned i = 0; i < nWorkers && workLeft(); ++i) {
            if (!slots[i].alive)
                spawn(i);
            if (slots[i].alive && !slots[i].busy)
                dispatch(i);
        }

        std::vector<struct pollfd> fds;
        std::vector<unsigned> fdSlot;
        for (unsigned i = 0; i < nWorkers; ++i) {
            if (!slots[i].alive || !slots[i].busy)
                continue;
            fds.push_back({slots[i].resFd, POLLIN, 0});
            fdSlot.push_back(i);
        }
        if (fds.empty()) {
            if (!workLeft())
                SLIP_FATAL("worker pool: no workers in flight but ",
                           end - completed, " jobs unresolved");
            continue; // respawn loop above will refill
        }

        int timeout = -1;
        if (opts_.timeoutMs > 0) {
            const auto now = Clock::now();
            Clock::time_point nearest = Clock::time_point::max();
            for (unsigned i : fdSlot)
                nearest = std::min(nearest, slots[i].deadline);
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    nearest - now)
                    .count();
            timeout = int(std::max<long long>(0, left)) + 1;
        }

        const int npoll = poll(fds.data(), int(fds.size()), timeout);
        if (npoll < 0) {
            if (errno == EINTR)
                continue;
            SLIP_FATAL("worker pool: poll() failed: ",
                       std::strerror(errno));
        }

        // Deadlines first: a worker both readable and expired gets to
        // deliver its result (it finished in time; scheduling jitter
        // is not the trial's fault).
        for (size_t k = 0; k < fds.size(); ++k) {
            const unsigned i = fdSlot[k];
            WorkerSlot &slot = slots[i];
            if (!slot.alive || !slot.busy)
                continue;

            if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
                wire::MsgType type;
                std::string payload;
                const wire::ReadResult r =
                    wire::readFrame(slot.resFd, type, payload);
                if (r == wire::ReadResult::Ok &&
                    type == wire::MsgType::JobResult) {
                    wire::Decoder dec(payload);
                    const uint64_t job = dec.getU64();
                    std::string body = dec.getString();
                    if (job != slot.job)
                        SLIP_FATAL("worker pool: result for job ", job,
                                   " from a worker running job ",
                                   slot.job);
                    slot.busy = false;
                    IsolatedOutcome out;
                    out.status = IsolatedOutcome::Status::Ok;
                    out.payload = std::move(body);
                    finish(job, std::move(out));
                } else {
                    // EOF or a torn/garbled frame: the worker is gone
                    // (or unusable — same thing to the supervisor).
                    handleDeath(i, r == wire::ReadResult::Error);
                }
                continue;
            }

            if (opts_.timeoutMs > 0 && Clock::now() >= slot.deadline) {
                const size_t job = slot.job;
                slot.busy = false; // reap must not charge a crash
                reap(slot, true);
                closeFd(slot.reqFd);
                closeFd(slot.resFd);
                closeFd(slot.crashFd);
                IsolatedOutcome out;
                out.status = IsolatedOutcome::Status::TimedOut;
                out.signal = SIGKILL;
                out.phase = TrialPhase(
                    uint8_t(heartbeatSlot(hbMap, i)->load(
                                std::memory_order_relaxed) &
                            0xff));
                SLIP_TRACE(obs::Category::Worker, obs::Name::WorkerCrash,
                           obs::Phase::Instant, uint64_t(SIGKILL),
                           uint64_t(job));
                finish(job, std::move(out));
            }
        }
    }

    results.resize(end);
    return results;
}

} // namespace slip
