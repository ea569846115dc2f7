#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "common/crash_report.hh"
#include "common/logging.hh"
#include "harness/sim_runner.hh"
#include "harness/worker_pool.hh"

namespace slip
{
namespace
{

/** Scoped environment override restoring the prior value on exit. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *prev = getenv(name);
        hadPrev_ = prev != nullptr;
        if (hadPrev_)
            prev_ = prev;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~EnvGuard()
    {
        if (hadPrev_)
            setenv(name_.c_str(), prev_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string prev_;
    bool hadPrev_ = false;
};

TEST(IsolationMode, NamesAndParsing)
{
    EXPECT_STREQ(isolationModeName(IsolationMode::None), "none");
    EXPECT_STREQ(isolationModeName(IsolationMode::Fork), "fork");

    IsolationMode m = IsolationMode::None;
    EXPECT_TRUE(parseIsolationMode("fork", m));
    EXPECT_EQ(m, IsolationMode::Fork);
    EXPECT_TRUE(parseIsolationMode("none", m));
    EXPECT_EQ(m, IsolationMode::None);
    EXPECT_FALSE(parseIsolationMode("container", m));
    EXPECT_FALSE(parseIsolationMode("", m));
}

TEST(IsolationMode, EnvUnsetUsesFallback)
{
    EnvGuard g("SLIPSTREAM_ISOLATION", nullptr);
    EXPECT_EQ(isolationFromEnv(), IsolationMode::None);
    EXPECT_EQ(isolationFromEnv(IsolationMode::Fork),
              IsolationMode::Fork);
}

TEST(IsolationMode, EnvSetOverrides)
{
    EnvGuard g("SLIPSTREAM_ISOLATION", "fork");
    EXPECT_EQ(isolationFromEnv(), IsolationMode::Fork);
}

TEST(IsolationMode, EnvGarbageThrows)
{
    // Mode knobs parse strictly (common/env::envChoice): a typo'd
    // isolation mode would run a whole campaign unsandboxed, so an
    // unrecognized value throws instead of falling back.
    EnvGuard g("SLIPSTREAM_ISOLATION", "yes-please");
    setLogQuiet(true);
    EXPECT_THROW(isolationFromEnv(), FatalError);
    setLogQuiet(false);
}

TEST(CrashReport, PhaseNamesAndPacking)
{
    EXPECT_STREQ(trialPhaseName(TrialPhase::Idle), "idle");
    EXPECT_STREQ(trialPhaseName(TrialPhase::Run), "run");
    const uint64_t word = packProgress(42, TrialPhase::Report);
    EXPECT_EQ(word >> 8, 42u);
    EXPECT_EQ(TrialPhase(word & 0xff), TrialPhase::Report);
}

TEST(CrashReport, SignalNames)
{
    char buf[32];
    EXPECT_STREQ(crashSignalName(SIGSEGV, buf, sizeof(buf)),
                 "SIGSEGV");
    EXPECT_STREQ(crashSignalName(SIGKILL, buf, sizeof(buf)),
                 "SIGKILL");
    // Unlisted signals render as a number, never garbage.
    const std::string odd = crashSignalName(64, buf, sizeof(buf));
    EXPECT_NE(odd.find("64"), std::string::npos);
}

WorkerPoolOptions
quietOpts(unsigned workers, uint64_t timeoutMs = 0)
{
    WorkerPoolOptions opts;
    opts.workers = workers;
    opts.timeoutMs = timeoutMs;
    return opts;
}

TEST(WorkerPool, HealthyJobsReturnPayloadsByIndex)
{
    WorkerPool pool(quietOpts(3));
    const auto results = pool.run(8, [](size_t job, unsigned attempt) {
        EXPECT_EQ(attempt, 1u);
        return "job-" + std::to_string(job);
    });
    ASSERT_EQ(results.size(), 8u);
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].ok());
        EXPECT_EQ(results[i].payload, "job-" + std::to_string(i));
        EXPECT_EQ(results[i].attempts, 1u);
    }
}

TEST(WorkerPool, SigsegvLosesExactlyOneJob)
{
    setLogQuiet(true);
    WorkerPool pool(quietOpts(2));
    const auto results = pool.run(6, [](size_t job, unsigned) {
        if (job == 3) {
            setCrashContext(job, TrialPhase::Run);
            raise(SIGSEGV);
        }
        return std::string("ok");
    });
    setLogQuiet(false);

    ASSERT_EQ(results.size(), 6u);
    for (size_t i = 0; i < results.size(); ++i) {
        if (i == 3)
            continue;
        EXPECT_TRUE(results[i].ok()) << "job " << i;
    }
    const IsolatedOutcome &dead = results[3];
    EXPECT_EQ(dead.status, IsolatedOutcome::Status::Crashed);
    EXPECT_EQ(dead.signal, SIGSEGV);
    EXPECT_EQ(dead.phase, TrialPhase::Run);
    // Crashed on every dispatch: redispatched to the threshold, then
    // marked poisoned for the caller to quarantine.
    EXPECT_TRUE(dead.poisoned);
    EXPECT_GE(dead.attempts, 2u);
}

TEST(WorkerPool, PlainExitIsTriagedByExitCode)
{
    setLogQuiet(true);
    WorkerPool pool(quietOpts(2));
    const auto results = pool.run(4, [](size_t job, unsigned) {
        if (job == 1)
            _exit(3);
        return std::string("ok");
    });
    setLogQuiet(false);

    EXPECT_EQ(results[1].status, IsolatedOutcome::Status::Crashed);
    EXPECT_EQ(results[1].signal, 0);
    EXPECT_EQ(results[1].exitCode, 3);
    EXPECT_TRUE(results[1].poisoned);
    EXPECT_TRUE(results[0].ok());
    EXPECT_TRUE(results[2].ok());
    EXPECT_TRUE(results[3].ok());
}

TEST(WorkerPool, FirstAttemptCrashRedispatchSucceeds)
{
    // The crash happens on attempt 1 only — the redispatch must
    // recover the job with a fresh worker.
    setLogQuiet(true);
    WorkerPool pool(quietOpts(2));
    const auto results =
        pool.run(3, [](size_t job, unsigned attempt) {
            if (job == 2 && attempt == 1)
                raise(SIGSEGV);
            return "attempt-" + std::to_string(attempt);
        });
    setLogQuiet(false);

    ASSERT_TRUE(results[2].ok());
    EXPECT_EQ(results[2].payload, "attempt-2");
    EXPECT_EQ(results[2].attempts, 2u);
    EXPECT_FALSE(results[2].poisoned);
}

TEST(WorkerPool, DeadlineReapsSpinningWorker)
{
    setLogQuiet(true);
    WorkerPool pool(quietOpts(2, 1500));
    const auto results = pool.run(3, [](size_t job, unsigned) {
        if (job == 0) {
            setCrashContext(job, TrialPhase::Run);
            volatile uint64_t sink = 0;
            for (;;)
                sink = sink + 1;
        }
        return std::string("ok");
    });
    setLogQuiet(false);

    EXPECT_EQ(results[0].status, IsolatedOutcome::Status::TimedOut);
    EXPECT_EQ(results[0].signal, SIGKILL);
    // The heartbeat word survives the SIGKILL even though no handler
    // could run, so triage still knows where the trial was.
    EXPECT_EQ(results[0].phase, TrialPhase::Run);
    // A deadline is proof of non-termination, not flakiness: no
    // redispatch.
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_TRUE(results[1].ok());
    EXPECT_TRUE(results[2].ok());
}

TEST(WorkerPool, OnOutcomeSeesEveryJob)
{
    setLogQuiet(true);
    std::vector<int> seen(5, 0);
    std::atomic<int> crashes{0};
    WorkerPool pool(quietOpts(2));
    pool.run(
        5,
        [](size_t job, unsigned) {
            if (job == 4)
                raise(SIGABRT);
            return std::string("ok");
        },
        [&](size_t job, const IsolatedOutcome &o) {
            ++seen[job];
            if (o.status == IsolatedOutcome::Status::Crashed)
                ++crashes;
            return true;
        });
    setLogQuiet(false);
    for (int n : seen)
        EXPECT_EQ(n, 1);
    EXPECT_EQ(crashes.load(), 1);
}

/**
 * Per-job run counts in shared memory, so that the runs in forked
 * workers are counted where the test can read them.
 */
class SharedCounts
{
  public:
    explicit SharedCounts(size_t n)
        : n_(n), map_(mmap(nullptr, n * sizeof(std::atomic<int>),
                           PROT_READ | PROT_WRITE,
                           MAP_SHARED | MAP_ANONYMOUS, -1, 0))
    {
        EXPECT_NE(map_, MAP_FAILED);
    }

    ~SharedCounts() { munmap(map_, n_ * sizeof(std::atomic<int>)); }

    std::atomic<int> &
    operator[](size_t i)
    {
        return static_cast<std::atomic<int> *>(map_)[i];
    }

  private:
    size_t n_;
    void *map_;
};

/**
 * One worker and a stop on the first outcome: the one job dispatched
 * is the prefix returned, and no later job ever runs. Job 0 crashes
 * on its first dispatch, before the stop, and still gets its
 * re-dispatch.
 */
TEST(WorkerPool, StopOnOutcomeReturnsTheDispatchedPrefix)
{
    setLogQuiet(true);
    SharedCounts runs(8);
    unsigned calls = 0;
    WorkerPool pool(quietOpts(1));
    const auto results = pool.run(
        8,
        [&](size_t job, unsigned attempt) {
            ++runs[job];
            if (job == 0 && attempt == 1)
                raise(SIGSEGV);
            return "job-" + std::to_string(job);
        },
        [&](size_t, const IsolatedOutcome &) { return ++calls > 1; });
    setLogQuiet(false);

    EXPECT_EQ(calls, 1u);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_EQ(results[0].payload, "job-0");
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_EQ(runs[0].load(), 2);
    for (size_t j = 1; j < 8; ++j)
        EXPECT_EQ(runs[j].load(), 0) << "job " << j;
}

/**
 * A job in flight at the stop is still delivered, and if it crashes it
 * is still re-dispatched. Two workers take jobs 0 and 1 at once; job 1
 * returns at once and stops the batch while job 0 is still running
 * its first attempt, which crashes.
 */
TEST(WorkerPool, CrashedJobKeepsItsRedispatchAfterAStop)
{
    setLogQuiet(true);
    SharedCounts runs(8);
    WorkerPool pool(quietOpts(2));
    const auto results = pool.run(
        8,
        [&](size_t job, unsigned attempt) {
            ++runs[job];
            if (job == 0 && attempt == 1) {
                usleep(200 * 1000);
                raise(SIGSEGV);
            }
            return "job-" + std::to_string(job);
        },
        [](size_t, const IsolatedOutcome &) { return false; });
    setLogQuiet(false);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_TRUE(results[1].ok());
    EXPECT_EQ(results[1].payload, "job-1");
    for (size_t j = 2; j < 8; ++j)
        EXPECT_EQ(runs[j].load(), 0) << "job " << j;
}

/**
 * A throw from onOutcome leaves no worker behind: the idle worker is
 * told to exit, the busy one is killed, and both are reaped before
 * the exception reaches the caller.
 */
TEST(WorkerPool, ThrowingOnOutcomeLeavesNoWorkerRunning)
{
    const std::vector<EncodedJob> batch = {
        [](const CancelToken &) { return std::string("fast"); },
        [](const CancelToken &) {
            sleep(30);
            return std::string("slow");
        },
        [](const CancelToken &) { return std::string("never"); },
    };
    EXPECT_THROW(runEncodedJobs(2, Supervision{}, IsolationMode::Fork, batch,
                                [](size_t, Outcome<std::string> &&) -> bool {
                                    throw std::runtime_error("journal full");
                                }),
                 std::runtime_error);
    errno = 0;
    EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(WorkerPool, ZeroJobsIsANoOp)
{
    WorkerPool pool(quietOpts(2));
    const auto results =
        pool.run(0, [](size_t, unsigned) { return std::string(); });
    EXPECT_TRUE(results.empty());
}

TEST(WorkerPool, ManyMoreJobsThanWorkers)
{
    WorkerPool pool(quietOpts(2));
    const auto results =
        pool.run(32, [](size_t job, unsigned) {
            return std::to_string(job * job);
        });
    ASSERT_EQ(results.size(), 32u);
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].payload, std::to_string(i * i));
}

/** A record other than RunMetrics: anything with a fields() list. */
struct Tagged
{
    uint64_t job = 0;
    std::string label;

    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("job", self.job);
        v("label", self.label);
    }
};

/**
 * The runner carries any record through fork isolation: a job whose
 * worker dies comes back `crashed` with the supervisor's triage, and
 * every sibling's record decodes intact.
 */
TEST(SimJobRunner, ForkedRecordsSurviveASegfaultingJob)
{
    setLogQuiet(true);
    SimJobRunner<Tagged> runner(2, Supervision{});
    runner.setIsolation(IsolationMode::Fork);
    for (uint64_t i = 0; i < 6; ++i) {
        runner.add([i] {
            if (i == 3)
                raise(SIGSEGV);
            return Tagged{i, "job-" + std::to_string(i)};
        });
    }
    const std::vector<Outcome<Tagged>> outcomes = runner.runSupervised();
    setLogQuiet(false);

    ASSERT_EQ(outcomes.size(), 6u);
    for (uint64_t i = 0; i < outcomes.size(); ++i) {
        if (i == 3)
            continue;
        EXPECT_TRUE(outcomes[i].ok()) << "job " << i;
        EXPECT_EQ(outcomes[i].record.job, i);
        EXPECT_EQ(outcomes[i].record.label, "job-" + std::to_string(i));
    }
    const Outcome<Tagged> &dead = outcomes[3];
    EXPECT_EQ(dead.status, JobEnd::Status::Crashed);
    EXPECT_EQ(dead.termSignal, SIGSEGV);
    EXPECT_EQ(dead.crashPhase, TrialPhase::Run);
    EXPECT_NE(dead.errorMessage.find("SIGSEGV"), std::string::npos)
        << dead.errorMessage;
    EXPECT_NE(dead.errorMessage.find("(phase run)"), std::string::npos)
        << dead.errorMessage;
    EXPECT_TRUE(dead.record.label.empty());
}

/**
 * The runner's stop under fork isolation: one worker, a stop on the
 * first outcome, and the one job dispatched comes back, after the
 * re-dispatch its first crash earned.
 */
TEST(SimJobRunner, ForkedStopReturnsTheDispatchedPrefix)
{
    setLogQuiet(true);
    SharedCounts runs(8);
    SimJobRunner<Tagged> runner(1, Supervision{});
    runner.setIsolation(IsolationMode::Fork);
    for (uint64_t i = 0; i < 8; ++i) {
        runner.add([i, &runs] {
            if (++runs[i] == 1 && i == 0)
                raise(SIGSEGV);
            return Tagged{i, "job-" + std::to_string(i)};
        });
    }
    unsigned calls = 0;
    const std::vector<Outcome<Tagged>> outcomes = runner.runSupervised(
        [&](size_t, const Outcome<Tagged> &) { return ++calls > 1; });
    setLogQuiet(false);

    EXPECT_EQ(calls, 1u);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].record.label, "job-0");
    EXPECT_EQ(outcomes[0].attempts, 2u);
    for (size_t j = 1; j < 8; ++j)
        EXPECT_EQ(runs[j].load(), 0) << "job " << j;
}

} // namespace
} // namespace slip
