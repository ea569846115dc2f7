/**
 * @file
 * The parallel experiment engine: simulation runs in a grid (workload
 * x model x configuration) are independent, so the harness expresses
 * each run as a job and executes the jobs on a work-stealing thread
 * pool. Three pieces:
 *
 *  - defaultJobs(): worker-count policy ($SLIPSTREAM_JOBS, else the
 *    hardware concurrency).
 *  - ProgramCache: a process-wide memo of assembled programs, their
 *    golden (functional-simulator) outputs and image digests, keyed
 *    by workload name + size. Assembly, golden execution and hashing
 *    happen exactly once per workload even when many jobs share it,
 *    and the resulting Entry is immutable, so jobs on different
 *    threads share it freely.
 *  - SimJobRunner: collects RunMetrics-producing jobs and runs them
 *    across the pool, returning results in submission order — output
 *    is byte-identical whatever the worker count, because each job is
 *    a pure function of const inputs. Batches are *supervised*: each
 *    job yields a per-job Outcome (ok / error / timed-out) so one
 *    failure never voids its siblings, a wall-clock deadline reaps
 *    stuck jobs via cooperative cancellation, and retryably-failing
 *    jobs re-run with bounded backoff.
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
#include <vector>

#include "assembler/program.hh"
#include "common/cancel.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "harness/experiment.hh"
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
 * How one supervised job ended. `ok` carries the full metrics;
 * `timed_out` means the supervisor's wall-clock deadline reaped the
 * job (metrics hold whatever partial state the cancelled run
 * returned); `error` means the job threw, with the exception
 * classified (common/logging taxonomy) and preserved for rethrow;
 * `crashed` (fork isolation only) means the worker process running
 * the job died — signal, exit code, faulting address, and last-known
 * phase come from the supervisor's triage.
 */
struct JobOutcome
{
    enum class Status : uint8_t
    {
        Ok,
        Error,
        TimedOut,
        Crashed,
    };

    Status status = Status::Ok;
    RunMetrics metrics;

    // Error only.
    ErrorKind errorKind = ErrorKind::Unknown;
    std::string errorMessage;
    std::exception_ptr exception;

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

/** "ok", "error", "timed_out", "crashed". */
const char *jobStatusName(JobOutcome::Status status);

/**
 * Per-job supervision policy for a batch: a wall-clock deadline
 * (enforced via cooperative cancellation — the simulators poll the
 * token in their cycle loops) and bounded retry-with-backoff for
 * failures whose classification says re-running could help.
 */
struct Supervision
{
    /** Wall-clock deadline per attempt in ms; 0 = no deadline. */
    uint64_t timeoutMs = 0;

    /** Re-executions allowed after a retryable failure. */
    unsigned retries = 1;

    /** First retry delay; doubles per subsequent retry. */
    uint64_t backoffMs = 100;

    /**
     * $SLIPSTREAM_TRIAL_TIMEOUT_MS / $SLIPSTREAM_TRIAL_RETRIES over
     * the defaults above (garbage values warn and fall back).
     */
    static Supervision fromEnv();
};

/**
 * Runs a batch of simulation jobs on a thread pool. Usage:
 *
 *   SimJobRunner runner;                   // defaultJobs() workers
 *   for (...) runner.add([=] { return runSS(...); });
 *   std::vector<RunMetrics> results = runner.run();
 *
 * Results come back in add() order regardless of completion order.
 * With jobs() == 1 the batch executes inline on the calling thread —
 * a true serial baseline with no pool machinery.
 *
 * runSupervised() is the resilient form: every job yields a
 * JobOutcome, so one failing or hung trial never voids its siblings'
 * results. Jobs may take a CancelToken (polled by the simulators'
 * cycle loops) so the deadline watchdog can reap a stuck trial
 * without killing the process. The legacy run() keeps its original
 * contract — the first-added error is rethrown — but is now a
 * wrapper over runSupervised(), so supervision (timeouts, retries)
 * applies there too.
 */
class SimJobRunner
{
  public:
    using Job = std::function<RunMetrics()>;
    using CancellableJob = std::function<RunMetrics(const CancelToken &)>;

    /** Called once per finished job (serialized, any thread). */
    using OnOutcome = std::function<void(size_t, const JobOutcome &)>;

    /** `jobs` == 0 means defaultJobs(). Isolation defaults to
     *  $SLIPSTREAM_ISOLATION (none when unset). */
    explicit SimJobRunner(unsigned jobs = 0,
                          Supervision supervision = Supervision::fromEnv());

    /**
     * Select how jobs are sandboxed. Fork isolation executes each job
     * in a worker *process* (harness/worker_pool.hh): a job that
     * SIGSEGVs or gets OOM-killed becomes a `crashed` outcome instead
     * of taking the harness down. Results are byte-identical to
     * in-process execution for jobs that complete (the wire codec
     * round-trips RunMetrics exactly); crashes and timeouts differ
     * only in how much partial state survives.
     */
    void setIsolation(IsolationMode mode) { isolation_ = mode; }
    IsolationMode isolation() const { return isolation_; }

    /** Queue one job; returns its index in the result vector. */
    size_t add(Job job);

    /** Queue one cancellation-aware job. */
    size_t add(CancellableJob job);

    /**
     * Execute all queued jobs; clears the queue. Rethrows the
     * first-added job error; a timed-out job raises fatal().
     */
    std::vector<RunMetrics> run();

    /**
     * Execute all queued jobs, returning one JobOutcome per job in
     * add() order; clears the queue. Never throws on job failure.
     * `onOutcome` (optional) fires as each job finishes — callers
     * journal completed trials through it.
     */
    std::vector<JobOutcome> runSupervised(const OnOutcome &onOutcome = {});

    unsigned jobs() const { return jobs_; }
    size_t pending() const { return pending_.size(); }
    const Supervision &supervision() const { return supervision_; }

  private:
    class DeadlineWatchdog;

    JobOutcome executeOne(const CancellableJob &job,
                          DeadlineWatchdog *watchdog) const;

    std::vector<JobOutcome>
    runForkIsolated(const std::vector<CancellableJob> &batch,
                    const OnOutcome &onOutcome) const;

    unsigned jobs_;
    Supervision supervision_;
    IsolationMode isolation_;
    std::vector<CancellableJob> pending_;
};

} // namespace slip

#endif // SLIPSTREAM_HARNESS_SIM_RUNNER_HH
