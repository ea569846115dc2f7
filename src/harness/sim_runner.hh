/**
 * @file
 * The one batch runner. Simulation runs in a grid (workload x model x
 * configuration), fault-campaign trials and fuzz seeds are independent
 * jobs, and every batch of them runs here. Three pieces:
 *
 *  - defaultJobs() / resolveJobs(): worker-count policy
 *    ($SLIPSTREAM_JOBS, else the hardware concurrency).
 *  - ProgramCache: a process-wide memo of assembled programs, their
 *    golden (functional-simulator) outputs and image digests, keyed
 *    by workload name + size. Assembly, golden execution and hashing
 *    happen exactly once per workload even when many jobs share it,
 *    and the resulting Entry is immutable, so jobs on different
 *    threads share it freely.
 *  - SimJobRunner: runs jobs that each return a record (RunMetrics, or
 *    any record with a fields() list) and returns the records in
 *    submission order — output is byte-identical whatever the worker
 *    count, because each job is a pure function of const inputs. An
 *    in-process batch runs on plain threads that claim job indices in
 *    order from one counter; a fork-isolated batch runs on the worker
 *    processes of harness/worker_pool.hh. Either way each record
 *    travels as its wire bytes and one decoder reads it, so the
 *    isolation mode only picks the executor. Batches are *supervised*:
 *    each job yields an outcome (ok / error / timed-out / crashed) so
 *    one failure never voids its siblings, a wall-clock deadline reaps
 *    stuck jobs, and retryably-failing jobs re-run with bounded
 *    backoff.
 */

#ifndef SLIPSTREAM_HARNESS_SIM_RUNNER_HH
#define SLIPSTREAM_HARNESS_SIM_RUNNER_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "assembler/program.hh"
#include "common/cancel.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/wire.hh"
#include "harness/worker_pool.hh"
#include "workloads/workloads.hh"

namespace slip
{

/**
 * Worker count for experiment harnesses: $SLIPSTREAM_JOBS if set and
 * a positive integer (else a warning), otherwise the hardware
 * concurrency (at least 1). Re-reads the environment on every call so
 * tests can override per-run.
 */
unsigned defaultJobs();

/** The worker count a batch asking for `jobs` gets: `jobs`, or
 *  defaultJobs() when it is 0. */
unsigned resolveJobs(unsigned jobs);

/**
 * The identity of an assembled program image: a hash of its entry pc,
 * text and data base addresses, encoded text words and initialized
 * data bytes. It is derived from content only, so two assemblies of
 * the same source digest equally wherever they live in host memory.
 */
Hash128 programImageDigest(const Program &program);

/**
 * Process-wide memo of assembled workloads. get() assembles the
 * program, computes its golden output and digests its image the
 * first time a given {name, size} is requested; every later request —
 * from any thread — returns the same immutable entry.
 */
class ProgramCache
{
  public:
    struct Entry
    {
        Program program;
        std::string golden;        // functional-simulator output
        uint64_t goldenInstCount;  // dynamic instructions to halt
        Hash128 imageDigest;       // programImageDigest(program)
    };

    /** Look up a registry workload (getWorkload semantics). */
    const Entry &get(const std::string &name, WorkloadSize size);

    /** The shared instance used by benches and runAllModels(). */
    static ProgramCache &global();

  private:
    struct Slot
    {
        std::once_flag once;
        std::unique_ptr<Entry> entry;
    };

    std::mutex mu_; // guards the map shape only; Slots are stable
    std::map<std::string, Slot> slots_;
};

/**
 * How one supervised job ended, apart from the record it returned.
 * `ok`: the job returned. `timed_out`: the supervisor's wall-clock
 * deadline reaped the job (its record holds whatever partial state the
 * cancelled run returned, if it returned at all). `error`: the job
 * threw; the exception is classified (common/logging taxonomy) and,
 * in-process, preserved for rethrow. `crashed` (fork isolation only):
 * the worker process running the job died; signal, exit code, faulting
 * address and last-known phase come from the supervisor's triage, and
 * errorMessage says how the worker died.
 */
struct JobEnd
{
    enum class Status : uint8_t
    {
        Ok,
        Error,
        TimedOut,
        Crashed,
    };

    Status status = Status::Ok;

    // Error and Crashed.
    ErrorKind errorKind = ErrorKind::Unknown;
    std::string errorMessage;
    std::exception_ptr exception; // Error, in-process only

    // Crashed only (fork isolation): worker-death triage.
    int termSignal = 0;   // terminating signal, 0 if it _exit()ed
    int termExitCode = 0; // exit status when termSignal == 0
    uint64_t crashAddr = 0;
    TrialPhase crashPhase = TrialPhase::Idle;
    bool poisoned = false; // crashed repeatedly — quarantine material

    /** Executions performed, including retries (>= 1). */
    unsigned attempts = 1;

    bool ok() const { return status == Status::Ok; }
};

/**
 * A finished job: how it ended, and the record it returned
 * (default-constructed when it returned none: it threw, crashed, or
 * was killed at its deadline).
 */
template <typename Record>
struct Outcome : JobEnd
{
    Record record;

    /**
     * The wire fields, in order (see harness/wire.hh). The exception
     * stays behind; its kind and message cross instead.
     */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("job status", self.status);
        v("record", self.record);
        v("error kind", self.errorKind);
        v("error message", self.errorMessage);
        v("signal", self.termSignal);
        v("exit code", self.termExitCode);
        v("crash address", self.crashAddr);
        v("crash phase", self.crashPhase);
        v("poisoned", self.poisoned);
        v("attempts", self.attempts);
    }
};

/** A finished simulation job; its record is named `metrics`. */
struct JobOutcome : JobEnd
{
    RunMetrics metrics;
};

/** The greatest job status (the wire decoder's range check). */
constexpr JobEnd::Status
lastEnumerator(JobEnd::Status)
{
    return JobEnd::Status::Crashed;
}

/** "ok", "error", "timed_out", "crashed". */
const char *jobStatusName(JobEnd::Status status);

/**
 * Per-job supervision policy for a batch: a wall-clock deadline
 * (enforced via cooperative cancellation — the simulators poll the
 * token in their cycle loops) and bounded retry-with-backoff for
 * failures whose classification says re-running could help.
 */
struct Supervision
{
    /** Re-executions allowed after a retryable failure. */
    static constexpr unsigned kRetries = 1;

    /** The retry's delay in ms. */
    static constexpr uint64_t kBackoffMs = 100;

    /** Wall-clock deadline per attempt in ms; 0 = no deadline. */
    uint64_t timeoutMs = 0;

    /**
     * $SLIPSTREAM_TRIAL_TIMEOUT_MS as the deadline (a garbage value
     * warns and falls back to none).
     */
    static Supervision fromEnv();
};

/** A job of the untyped core: it returns its record's wire bytes. */
using EncodedJob = std::function<std::string(const CancelToken &)>;

/**
 * Called once per finished job of the untyped core; returning false
 * dispatches no further job.
 */
using OnEncodedOutcome =
    std::function<bool(size_t, Outcome<std::string> &&)>;

/**
 * The untyped core every SimJobRunner batch runs through. Executes
 * `batch` under `supervision` on min(jobs, batch size) threads (the
 * calling thread among them, each claiming the next job index in
 * order) or, under fork isolation, on as many worker processes; each
 * finished job's outcome, its record still wire bytes, goes to
 * `onOutcome` (serialized, in completion order). Once `onOutcome`
 * returns false no further job is dispatched: the jobs already
 * dispatched finish and are delivered (under fork isolation a crashed
 * one is still re-dispatched). Both executors dispatch in index
 * order, so the delivered jobs are a prefix of `batch`. An exception
 * thrown by `onOutcome` stops the batch and is rethrown here.
 */
void runEncodedJobs(unsigned jobs, const Supervision &supervision,
                    IsolationMode isolation,
                    const std::vector<EncodedJob> &batch,
                    const OnEncodedOutcome &onOutcome);

/**
 * Runs a batch of jobs that each return a Record: RunMetrics by
 * default, or any record with a fields() list. Usage:
 *
 *   SimJobRunner runner;                   // defaultJobs() workers
 *   for (...) runner.add([=] { return runSS(...); });
 *   std::vector<RunMetrics> results = runner.run();
 *
 * Results come back in add() order regardless of completion order.
 * Each job's record crosses to the caller as its wire bytes whether it
 * ran on a thread or in a forked worker, and one decoder reads it, so
 * the isolation mode only picks the executor. With jobs() == 1 an
 * in-process batch runs on the calling thread alone.
 *
 * runSupervised() is the resilient form: every job yields an outcome
 * (JobOutcome for RunMetrics, Outcome<Record> for other records), so
 * one failing or hung job never voids its siblings' results. Jobs may
 * take a CancelToken (polled by the simulators' cycle loops) so the
 * deadline watchdog can reap a stuck trial without killing the
 * process. run() rethrows the first-added job error instead, and a
 * timed-out job raises fatal().
 */
template <typename Record = RunMetrics>
class SimJobRunner
{
  public:
    using Job = std::function<Record()>;
    using CancellableJob = std::function<Record(const CancelToken &)>;
    using Result =
        std::conditional_t<std::is_same_v<Record, RunMetrics>, JobOutcome,
                           Outcome<Record>>;

    /**
     * Called once per finished job (serialized, any thread); false
     * dispatches no further job.
     */
    using OnOutcome = std::function<bool(size_t, const Result &)>;

    /** `jobs` == 0 means defaultJobs(). Isolation defaults to
     *  $SLIPSTREAM_ISOLATION (none when unset). */
    explicit SimJobRunner(unsigned jobs = 0,
                          Supervision supervision = Supervision::fromEnv())
        : jobs_(resolveJobs(jobs)), supervision_(supervision),
          isolation_(isolationFromEnv())
    {
    }

    /**
     * Select how jobs are sandboxed. Fork isolation executes each job
     * in a worker *process* (harness/worker_pool.hh): a job that
     * SIGSEGVs or gets OOM-killed becomes a `crashed` outcome instead
     * of taking the harness down. Jobs that complete return the same
     * records in both modes; crashes and timeouts differ only in how
     * much partial state survives.
     */
    void setIsolation(IsolationMode mode) { isolation_ = mode; }
    IsolationMode isolation() const { return isolation_; }

    /** Queue one job; returns its index in the result vector. */
    size_t
    add(Job job)
    {
        return add(CancellableJob(
            [job = std::move(job)](const CancelToken &) { return job(); }));
    }

    /** Queue one cancellation-aware job. */
    size_t
    add(CancellableJob job)
    {
        pending_.push_back(
            [job = std::move(job)](const CancelToken &cancel) {
                wire::Encoder enc;
                enc.put(job(cancel));
                return enc.bytes();
            });
        return pending_.size() - 1;
    }

    /**
     * Execute all queued jobs, returning one outcome per job in add()
     * order; clears the queue. Never throws on job failure.
     * `onOutcome` (optional) fires as each job finishes — callers
     * journal completed trials through it. Once it returns false no
     * further job is dispatched, and the outcomes returned are those
     * of the jobs dispatched before: a prefix of the queue.
     */
    std::vector<Result>
    runSupervised(const OnOutcome &onOutcome = {})
    {
        std::vector<EncodedJob> batch;
        batch.swap(pending_);
        std::vector<Result> outcomes(batch.size());
        size_t delivered = 0;
        runEncodedJobs(
            jobs_, supervision_, isolation_, batch,
            [&](size_t i, Outcome<std::string> &&encoded) {
                Result &o = outcomes[i];
                if (!encoded.record.empty()) {
                    wire::Decoder dec(encoded.record);
                    dec.get(recordOf(o));
                }
                static_cast<JobEnd &>(o) = std::move(encoded);
                ++delivered;
                return !onOutcome || onOutcome(i, o);
            });
        outcomes.resize(delivered);
        return outcomes;
    }

    /**
     * Execute all queued jobs; clears the queue. Rethrows the
     * first-added job error; a timed-out job raises fatal().
     */
    std::vector<Record>
    run()
    {
        std::vector<Result> outcomes = runSupervised();
        for (size_t i = 0; i < outcomes.size(); ++i) {
            const Result &o = outcomes[i];
            if (o.status != JobEnd::Status::Error &&
                o.status != JobEnd::Status::Crashed)
                continue;
            if (o.exception)
                std::rethrow_exception(o.exception);
            // Fork-isolated failures carry no exception_ptr (it cannot
            // cross the process boundary); keep the message.
            throw FatalError("job " + std::to_string(i) + ": " +
                             o.errorMessage);
        }
        std::vector<Record> results;
        results.reserve(outcomes.size());
        for (size_t i = 0; i < outcomes.size(); ++i) {
            if (outcomes[i].status == JobEnd::Status::TimedOut)
                SLIP_FATAL("job ", i, " exceeded the ",
                           supervision_.timeoutMs,
                           " ms trial deadline "
                           "(SLIPSTREAM_TRIAL_TIMEOUT_MS); use "
                           "runSupervised() to tolerate timeouts");
            results.push_back(std::move(recordOf(outcomes[i])));
        }
        return results;
    }

    unsigned jobs() const { return jobs_; }
    size_t pending() const { return pending_.size(); }
    const Supervision &supervision() const { return supervision_; }

  private:
    static Record &
    recordOf(Result &o)
    {
        if constexpr (std::is_same_v<Record, RunMetrics>)
            return o.metrics;
        else
            return o.record;
    }

    unsigned jobs_;
    Supervision supervision_;
    IsolationMode isolation_;
    std::vector<EncodedJob> pending_;
};

} // namespace slip

#endif // SLIPSTREAM_HARNESS_SIM_RUNNER_HH
