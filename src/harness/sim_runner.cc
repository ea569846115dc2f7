#include "harness/sim_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "assembler/assembler.hh"
#include "common/crash_report.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "func/func_sim.hh"
#include "harness/wire.hh"
#include "obs/trace_session.hh"

namespace slip
{

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("SLIPSTREAM_JOBS")) {
        unsigned n = 0;
        if (parseUnsigned(env, n) && n > 0)
            return n;
        SLIP_WARN("ignoring SLIPSTREAM_JOBS='", env,
                  "' (want a positive integer); using hardware "
                  "concurrency");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

unsigned
resolveJobs(unsigned jobs)
{
    return jobs > 0 ? jobs : defaultJobs();
}

Hash128
programImageDigest(const Program &program)
{
    // The lengths delimit text from data, so no image's bytes can
    // read as another's.
    Fnv128 h;
    h.putU64(program.entry());
    h.putU64(program.textBase());
    h.putU64(program.dataBase());
    h.putU64(program.rawTextWords().size());
    for (uint32_t word : program.rawTextWords())
        h.putU32(word);
    h.putU64(program.dataBytes().size());
    h.put(program.dataBytes().data(), program.dataBytes().size());
    return h.digest();
}

const ProgramCache::Entry &
ProgramCache::get(const std::string &name, WorkloadSize size)
{
    Slot *slot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        slot = &slots_[name + "#" + sizeName(size)];
    }
    std::call_once(slot->once, [&] {
        const Workload w = getWorkload(name, size);
        Program program = assemble(w.source);
        FuncSim sim(program);
        const FuncRunResult r = sim.run();
        if (!r.halted)
            SLIP_FATAL("workload '", name,
                       "' did not halt within the functional "
                       "simulator's instruction limit");
        const Hash128 digest = programImageDigest(program);
        slot->entry = std::make_unique<Entry>(
            Entry{std::move(program), r.output, r.instCount, digest});
    });
    return *slot->entry;
}

ProgramCache &
ProgramCache::global()
{
    static ProgramCache cache;
    return cache;
}

const char *
jobStatusName(JobEnd::Status status)
{
    switch (status) {
      case JobEnd::Status::Ok:
        return "ok";
      case JobEnd::Status::Error:
        return "error";
      case JobEnd::Status::TimedOut:
        return "timed_out";
      case JobEnd::Status::Crashed:
        return "crashed";
    }
    return "?";
}

Supervision
Supervision::fromEnv()
{
    Supervision s;
    s.timeoutMs = envU64("SLIPSTREAM_TRIAL_TIMEOUT_MS", s.timeoutMs);
    return s;
}

namespace
{

/**
 * One thread watching every in-flight job's wall-clock deadline.
 * watch() registers a token with deadline now+timeout; the thread
 * sleeps until the earliest registered deadline and cancels overdue
 * tokens. unwatch() must be called before the token is destroyed;
 * registration and cancellation share one mutex, so a token is never
 * touched after unwatch() returns.
 */
class DeadlineWatchdog
{
    using Clock = std::chrono::steady_clock;

  public:
    explicit DeadlineWatchdog(std::chrono::milliseconds timeout)
        : timeout_(timeout), thread_([this] { loop(); })
    {
    }

    ~DeadlineWatchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stopping_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    void
    watch(CancelToken *token)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            armed_[token] = Clock::now() + timeout_;
        }
        cv_.notify_all();
    }

    void
    unwatch(CancelToken *token)
    {
        std::lock_guard<std::mutex> lock(mu_);
        armed_.erase(token);
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stopping_) {
            if (armed_.empty()) {
                cv_.wait(lock);
                continue;
            }
            auto earliest = armed_.begin();
            for (auto it = armed_.begin(); it != armed_.end(); ++it)
                if (it->second < earliest->second)
                    earliest = it;
            if (Clock::now() >= earliest->second) {
                earliest->first->cancel();
                armed_.erase(earliest);
                continue;
            }
            // Wait on a copy: unwatch() may erase the entry meanwhile,
            // and wait_until reads its deadline again on waking.
            const Clock::time_point deadline = earliest->second;
            cv_.wait_until(lock, deadline);
        }
    }

    const std::chrono::milliseconds timeout_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::map<CancelToken *, Clock::time_point> armed_;
    bool stopping_ = false;
    std::thread thread_;
};

/** Run one job on this thread, retrying retryable failures. */
Outcome<std::string>
executeOne(const EncodedJob &job, DeadlineWatchdog *watchdog)
{
    Outcome<std::string> out;
    for (unsigned attempt = 1;; ++attempt) {
        out.attempts = attempt;
        CancelToken token;
        if (watchdog)
            watchdog->watch(&token);
        obs::setTrialAttempt(attempt);
        try {
            out.record = job(token);
            if (watchdog)
                watchdog->unwatch(&token);
            out.status = token.cancelled() ? JobEnd::Status::TimedOut
                                           : JobEnd::Status::Ok;
            return out;
        } catch (...) {
            if (watchdog)
                watchdog->unwatch(&token);
            if (token.cancelled()) {
                // The deadline tripped mid-flight and the wind-down
                // threw: the deadline is the story, not the throw.
                out.status = JobEnd::Status::TimedOut;
                return out;
            }
            const ErrorInfo info = classifyCurrentException();
            out.errorKind = info.kind;
            out.errorMessage = info.message;
            out.exception = std::current_exception();
            if (!errorRetryable(info.kind) ||
                attempt > Supervision::kRetries) {
                out.status = JobEnd::Status::Error;
                return out;
            }
            SLIP_WARN("retrying job after ",
                      errorKindName(info.kind), " failure (attempt ",
                      attempt, " of ", Supervision::kRetries + 1,
                      "): ", info.message);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(Supervision::kBackoffMs));
        }
    }
}

/** How a forked worker died, in words. */
std::string
workerDeathMessage(const IsolatedOutcome &iso)
{
    char scratch[32];
    std::ostringstream msg;
    if (iso.signal) {
        msg << "worker killed by "
            << crashSignalName(iso.signal, scratch, sizeof(scratch));
        if (iso.faultAddr)
            msg << " at 0x" << std::hex << iso.faultAddr << std::dec;
    } else {
        msg << "worker exited with code " << iso.exitCode;
    }
    msg << " (phase " << trialPhaseName(iso.phase) << ")";
    return msg.str();
}

/**
 * The in-process executor: min(jobs, batch size) threads, the caller
 * among them, each claiming the next unclaimed job index.
 */
void
runOnThreads(unsigned jobs, const Supervision &supervision,
             const std::vector<EncodedJob> &batch,
             const OnEncodedOutcome &onOutcome)
{
    std::unique_ptr<DeadlineWatchdog> watchdog;
    if (supervision.timeoutMs > 0)
        watchdog = std::make_unique<DeadlineWatchdog>(
            std::chrono::milliseconds(supervision.timeoutMs));

    std::atomic<size_t> next{0};
    std::mutex outcomeMu; // serializes onOutcome across threads
    std::exception_ptr failure; // onOutcome's first throw
    const auto work = [&] {
        for (size_t i; (i = next.fetch_add(1)) < batch.size();) {
            Outcome<std::string> out = executeOne(batch[i], watchdog.get());
            std::lock_guard<std::mutex> lock(outcomeMu);
            if (failure)
                return;
            try {
                if (!onOutcome(i, std::move(out)))
                    next = batch.size(); // claim no further job
            } catch (...) {
                failure = std::current_exception();
                next = batch.size();
            }
        }
    };

    const size_t threads = std::min<size_t>(jobs, batch.size());
    std::vector<std::thread> helpers;
    try {
        for (size_t t = 1; t < threads; ++t)
            helpers.emplace_back(work);
    } catch (const std::system_error &) {
        // The system refused a thread: the ones running (the caller
        // at least) still claim every job.
    }
    work();
    for (std::thread &t : helpers)
        t.join();
    if (failure)
        std::rethrow_exception(failure);
}

/**
 * The fork executor: the jobs stay in this process's memory (the
 * workers inherit them copy-on-write at fork), only indices go down
 * the pipe and encoded outcomes come back. The per-attempt deadline
 * is enforced by the supervisor with SIGKILL — cooperative
 * cancellation cannot cross a process boundary — and in-child retry
 * of retryable exceptions still applies, so classification matches
 * in-process execution.
 */
void
runForked(unsigned jobs, const Supervision &supervision,
          const std::vector<EncodedJob> &batch,
          const OnEncodedOutcome &onOutcome)
{
    WorkerPoolOptions opts;
    opts.workers = jobs;
    opts.timeoutMs = supervision.timeoutMs;
    WorkerPool pool(opts);

    const auto execute = [&](size_t job, unsigned) -> std::string {
        // Worker child. No watchdog: the parent holds the deadline.
        setCrashContext(job, TrialPhase::Run);
        wire::Encoder enc;
        enc.put(executeOne(batch[job], nullptr));
        return enc.bytes();
    };

    const auto collect = [&](size_t job, const IsolatedOutcome &iso) {
        Outcome<std::string> out;
        switch (iso.status) {
          case IsolatedOutcome::Status::Ok: {
            wire::Decoder dec(iso.payload);
            dec.get(out);
            break;
          }
          case IsolatedOutcome::Status::Crashed:
            out.status = JobEnd::Status::Crashed;
            out.errorKind = ErrorKind::InternalError;
            out.errorMessage = workerDeathMessage(iso);
            out.termSignal = iso.signal;
            out.termExitCode = iso.exitCode;
            out.crashAddr = iso.faultAddr;
            out.crashPhase = iso.phase;
            out.poisoned = iso.poisoned;
            break;
          case IsolatedOutcome::Status::TimedOut:
            out.status = JobEnd::Status::TimedOut;
            out.crashPhase = iso.phase;
            break;
        }
        out.attempts = std::max(out.attempts, iso.attempts);
        return onOutcome(job, std::move(out));
    };

    pool.run(batch.size(), execute, collect);
}

} // namespace

void
runEncodedJobs(unsigned jobs, const Supervision &supervision,
               IsolationMode isolation, const std::vector<EncodedJob> &batch,
               const OnEncodedOutcome &onOutcome)
{
    if (batch.empty())
        return;
    if (isolation == IsolationMode::Fork)
        runForked(jobs, supervision, batch, onOutcome);
    else
        runOnThreads(jobs, supervision, batch, onOutcome);
}

} // namespace slip
