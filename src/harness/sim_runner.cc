#include "harness/sim_runner.hh"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

#include "assembler/assembler.hh"
#include "common/crash_report.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "func/func_sim.hh"
#include "harness/thread_pool.hh"
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
jobStatusName(JobOutcome::Status status)
{
    switch (status) {
      case JobOutcome::Status::Ok:
        return "ok";
      case JobOutcome::Status::Error:
        return "error";
      case JobOutcome::Status::TimedOut:
        return "timed_out";
      case JobOutcome::Status::Crashed:
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

/**
 * One thread watching every in-flight job's wall-clock deadline.
 * watch() registers a token with deadline now+timeout; the thread
 * sleeps until the earliest registered deadline and cancels overdue
 * tokens. unwatch() must be called before the token is destroyed;
 * registration and cancellation share one mutex, so a token is never
 * touched after unwatch() returns.
 */
class SimJobRunner::DeadlineWatchdog
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
            cv_.wait_until(lock, earliest->second);
        }
    }

    const std::chrono::milliseconds timeout_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::map<CancelToken *, Clock::time_point> armed_;
    bool stopping_ = false;
    std::thread thread_;
};

SimJobRunner::SimJobRunner(unsigned jobs, Supervision supervision)
    : jobs_(jobs > 0 ? jobs : defaultJobs()), supervision_(supervision),
      isolation_(isolationFromEnv())
{
}

size_t
SimJobRunner::add(Job job)
{
    pending_.push_back(
        [job = std::move(job)](const CancelToken &) { return job(); });
    return pending_.size() - 1;
}

size_t
SimJobRunner::add(CancellableJob job)
{
    pending_.push_back(std::move(job));
    return pending_.size() - 1;
}

JobOutcome
SimJobRunner::executeOne(const CancellableJob &job,
                         DeadlineWatchdog *watchdog) const
{
    JobOutcome out;
    for (unsigned attempt = 1;; ++attempt) {
        out.attempts = attempt;
        CancelToken token;
        if (watchdog)
            watchdog->watch(&token);
        obs::setTrialAttempt(attempt);
        try {
            RunMetrics m = job(token);
            if (watchdog)
                watchdog->unwatch(&token);
            out.metrics = std::move(m);
            out.status = token.cancelled()
                             ? JobOutcome::Status::TimedOut
                             : JobOutcome::Status::Ok;
            return out;
        } catch (...) {
            if (watchdog)
                watchdog->unwatch(&token);
            if (token.cancelled()) {
                // The deadline tripped mid-flight and the wind-down
                // threw: the deadline is the story, not the throw.
                out.status = JobOutcome::Status::TimedOut;
                out.metrics = RunMetrics{};
                out.metrics.cancelled = true;
                return out;
            }
            const ErrorInfo info = classifyCurrentException();
            out.errorKind = info.kind;
            out.errorMessage = info.message;
            out.exception = std::current_exception();
            if (!errorRetryable(info.kind) ||
                attempt > supervision_.retries) {
                out.status = JobOutcome::Status::Error;
                return out;
            }
            SLIP_WARN("retrying job after ",
                      errorKindName(info.kind), " failure (attempt ",
                      attempt, " of ", supervision_.retries + 1,
                      "): ", info.message);
            std::this_thread::sleep_for(std::chrono::milliseconds(
                supervision_.backoffMs << (attempt - 1)));
        }
    }
}

/**
 * Fork-isolation path: the jobs stay in this process's memory (the
 * workers inherit them copy-on-write at fork), only indices go down
 * the pipe and serialized JobOutcomes come back. The per-attempt
 * deadline is enforced by the supervisor with SIGKILL — cooperative
 * cancellation cannot cross a process boundary — and in-child retry
 * of retryable exceptions still applies, so classification matches
 * in-process execution.
 */
std::vector<JobOutcome>
SimJobRunner::runForkIsolated(const std::vector<CancellableJob> &batch,
                              const OnOutcome &onOutcome) const
{
    WorkerPoolOptions opts;
    opts.workers = jobs_;
    opts.timeoutMs = supervision_.timeoutMs;
    WorkerPool pool(opts);

    std::vector<JobOutcome> outcomes(batch.size());

    const auto execute = [&](size_t job, unsigned) -> std::string {
        // Worker child. No watchdog: the parent holds the deadline.
        setCrashContext(job, TrialPhase::Run);
        const JobOutcome out = executeOne(batch[job], nullptr);
        wire::Encoder enc;
        enc.put(out);
        return enc.bytes();
    };

    const auto collect = [&](size_t job, const IsolatedOutcome &iso) {
        JobOutcome out;
        switch (iso.status) {
          case IsolatedOutcome::Status::Ok: {
            wire::Decoder dec(iso.payload);
            dec.get(out);
            break;
          }
          case IsolatedOutcome::Status::Crashed: {
            out.status = JobOutcome::Status::Crashed;
            out.errorKind = ErrorKind::InternalError;
            out.termSignal = iso.signal;
            out.termExitCode = iso.exitCode;
            out.crashAddr = iso.faultAddr;
            out.crashPhase = iso.phase;
            out.poisoned = iso.poisoned;
            char scratch[32];
            std::ostringstream msg;
            if (iso.signal) {
                msg << "worker killed by "
                    << crashSignalName(iso.signal, scratch,
                                       sizeof(scratch));
                if (iso.faultAddr)
                    msg << " at 0x" << std::hex << iso.faultAddr
                        << std::dec;
            } else {
                msg << "worker exited with code " << iso.exitCode;
            }
            msg << " (phase " << trialPhaseName(iso.phase) << ")";
            out.errorMessage = msg.str();
            break;
          }
          case IsolatedOutcome::Status::TimedOut:
            out.status = JobOutcome::Status::TimedOut;
            out.metrics.cancelled = true;
            out.crashPhase = iso.phase;
            break;
        }
        out.attempts = std::max(out.attempts, iso.attempts);
        outcomes[job] = std::move(out);
        if (onOutcome)
            onOutcome(job, outcomes[job]);
    };

    pool.run(batch.size(), execute, collect);
    return outcomes;
}

std::vector<JobOutcome>
SimJobRunner::runSupervised(const OnOutcome &onOutcome)
{
    std::vector<CancellableJob> batch;
    batch.swap(pending_);

    if (isolation_ == IsolationMode::Fork && !batch.empty())
        return runForkIsolated(batch, onOutcome);

    std::vector<JobOutcome> outcomes(batch.size());

    std::unique_ptr<DeadlineWatchdog> watchdog;
    if (supervision_.timeoutMs > 0)
        watchdog = std::make_unique<DeadlineWatchdog>(
            std::chrono::milliseconds(supervision_.timeoutMs));

    std::mutex outcomeMu; // serializes onOutcome across workers
    const auto finish = [&](size_t i) {
        outcomes[i] = executeOne(batch[i], watchdog.get());
        if (onOutcome) {
            std::lock_guard<std::mutex> lock(outcomeMu);
            onOutcome(i, outcomes[i]);
        }
    };

    if (jobs_ <= 1 || batch.size() <= 1) {
        // Serial baseline: no pool, no thread hop (the deadline
        // watchdog still runs — a stuck inline job is reaped too).
        for (size_t i = 0; i < batch.size(); ++i)
            finish(i);
        return outcomes;
    }

    ThreadPool pool(jobs_);
    for (size_t i = 0; i < batch.size(); ++i)
        pool.submit([&, i] { finish(i); });
    pool.wait();
    return outcomes;
}

std::vector<RunMetrics>
SimJobRunner::run()
{
    std::vector<JobOutcome> outcomes = runSupervised();

    std::vector<RunMetrics> results;
    results.reserve(outcomes.size());
    std::exception_ptr firstError;
    std::string firstErrorMessage;
    size_t firstTimeout = outcomes.size();
    for (size_t i = 0; i < outcomes.size(); ++i) {
        JobOutcome &o = outcomes[i];
        const bool failed = o.status == JobOutcome::Status::Error ||
                            o.status == JobOutcome::Status::Crashed;
        if (failed && !firstError && firstErrorMessage.empty()) {
            // Fork-isolated failures carry no exception_ptr (it
            // cannot cross the process boundary); keep the message.
            firstError = o.exception;
            firstErrorMessage = "job " + std::to_string(i) + ": " +
                                o.errorMessage;
        }
        if (o.status == JobOutcome::Status::TimedOut &&
            firstTimeout == outcomes.size())
            firstTimeout = i;
        results.push_back(std::move(o.metrics));
    }
    if (firstError)
        std::rethrow_exception(firstError);
    if (!firstErrorMessage.empty())
        throw FatalError(firstErrorMessage);
    if (firstTimeout != outcomes.size())
        SLIP_FATAL("job ", firstTimeout, " exceeded the ",
                   supervision_.timeoutMs,
                   " ms trial deadline (SLIPSTREAM_TRIAL_TIMEOUT_MS); "
                   "use runSupervised() to tolerate timeouts");
    return results;
}

} // namespace slip
