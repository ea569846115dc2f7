/**
 * @file
 * Fork-based trial sandboxing: a pool of worker processes that execute
 * jobs shipped over the wire protocol (harness/wire.hh), supervised so
 * that a worker dying — SIGSEGV through a wild store, SIGABRT from an
 * invariant, SIGKILL from the OOM killer — loses exactly one trial.
 *
 * The design follows the speculative-dispatch-to-expendable-executors
 * model: workers are cheap and replaceable; the supervisor owns all
 * durable state. Jobs are closures registered *before* fork, so the
 * children inherit them copy-on-write and only job indices cross the
 * pipe going down; results come back as opaque serialized payloads
 * (SimJobRunner, the pool's one user, layers its codec on top).
 *
 * Supervision per worker:
 *  - a request pipe (supervisor -> worker) carrying JobRequest frames,
 *  - a result pipe (worker -> supervisor) carrying JobResult frames,
 *  - a crash pipe the worker's async-signal-safe handler
 *    (common/crash_report.hh) writes one CrashNote to before dying,
 *  - a shared-memory heartbeat word (trialId << 8 | phase) the worker
 *    updates as it moves through a trial — the fallback triage source
 *    when death was too sudden for the handler (SIGKILL, OOM).
 *
 * A crashed trial is re-dispatched to a fresh worker until it has
 * crashed `kPoisonThreshold` times, then reported as poisoned — the
 * caller quarantines it (writes a repro bundle) instead of retrying
 * forever. A trial that exceeds the wall-clock deadline is SIGKILLed
 * and reported TimedOut without re-dispatch: the deadline already
 * proved the run does not terminate usefully.
 */

#ifndef SLIPSTREAM_HARNESS_WORKER_POOL_HH
#define SLIPSTREAM_HARNESS_WORKER_POOL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/crash_report.hh"

namespace slip
{

/** How trial execution is sandboxed. */
enum class IsolationMode : uint8_t
{
    None, // in-process (the runner's threads) — crashes kill the campaign
    Fork, // one forked worker process per in-flight trial
};

/** "none", "fork". */
const char *isolationModeName(IsolationMode mode);

/** Parse "none"/"fork" (case-sensitive); false on anything else. */
bool parseIsolationMode(const std::string &text, IsolationMode &mode);

/**
 * $SLIPSTREAM_ISOLATION per the STRICT mode-knob contract: unset
 * means `fallback`; an unrecognized value throws FatalError listing
 * the valid choices (none|fork) — see common/env::envChoice.
 */
IsolationMode isolationFromEnv(IsolationMode fallback = IsolationMode::None);

/** Pool shape and supervision policy. */
struct WorkerPoolOptions
{
    /** Worker processes (at least 1). */
    unsigned workers = 1;

    /** Per-dispatch wall-clock deadline in ms; 0 = no deadline. */
    uint64_t timeoutMs = 0;
};

/** How one sandboxed job ended, as seen by the supervisor. */
struct IsolatedOutcome
{
    enum class Status : uint8_t
    {
        Ok,       // payload holds the worker's serialized result
        Crashed,  // the worker died while running this job
        TimedOut, // the deadline expired; the worker was SIGKILLed
    };

    Status status = Status::Ok;
    std::string payload; // Ok only

    // Crashed only: triage from waitpid + CrashNote + heartbeat.
    int signal = 0;       // terminating signal, 0 if it _exit()ed
    int exitCode = 0;     // exit status when signal == 0
    uint64_t faultAddr = 0;
    TrialPhase phase = TrialPhase::Idle; // last-known progress
    bool poisoned = false; // crashed kPoisonThreshold times — quarantine

    /** Dispatches performed for this job (>= 1). */
    unsigned attempts = 1;

    bool ok() const { return status == Status::Ok; }
};

/** "ok", "crashed", "timed_out". */
const char *isolatedStatusName(IsolatedOutcome::Status status);

/**
 * The pool itself. Usage:
 *
 *   WorkerPool pool(opts);
 *   auto results = pool.run(jobs.size(),
 *       [&](size_t job, unsigned attempt) { return serialize(run(job)); },
 *       [&](size_t job, const IsolatedOutcome &o) {
 *           journal(job, o);
 *           return true; // false: dispatch no further job
 *       });
 *
 * run() forks the workers (so `execute` and everything it captures is
 * inherited copy-on-write), dispatches job indices, collects results
 * in any completion order, and returns them indexed by job. The
 * supervisor never dies with a worker: pipe errors, crashes, and
 * timeouts all resolve to per-job outcomes.
 *
 * `execute` runs in the *child* and must not throw — serialize errors
 * into the payload. `onOutcome` runs in the parent as each job
 * resolves (dispatch order is job order, completion order is not).
 * Once it returns false, no further job is dispatched: the jobs
 * already dispatched finish and are delivered (a crashed one is still
 * re-dispatched), and run() returns the outcomes of that prefix of the
 * jobs. However run() ends, a throw from `onOutcome` included, it
 * reaps every worker (SIGKILL for a busy one) before it returns.
 */
class WorkerPool
{
  public:
    using Execute = std::function<std::string(size_t job, unsigned attempt)>;
    using OnOutcome =
        std::function<bool(size_t job, const IsolatedOutcome &outcome)>;

    /**
     * Crashes a single job may cause before it is quarantined instead
     * of re-dispatched: 2 allows one re-dispatch.
     */
    static constexpr unsigned kPoisonThreshold = 2;

    explicit WorkerPool(WorkerPoolOptions opts = {});

    std::vector<IsolatedOutcome> run(size_t jobCount, const Execute &execute,
                                     const OnOutcome &onOutcome = {});

    unsigned workers() const { return opts_.workers; }

  private:
    WorkerPoolOptions opts_;
};

} // namespace slip

#endif // SLIPSTREAM_HARNESS_WORKER_POOL_HH
