/**
 * @file
 * Tests for the batch runner: the memoized program cache, supervision
 * (errors, deadlines, retries), and — the load-bearing property — that
 * SimJobRunner produces bit-identical results whatever the worker
 * count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <new>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "harness/sim_runner.hh"

namespace slip
{
namespace
{

/**
 * The runner's threads claim job indices in order; every job runs
 * exactly once and its result lands at its own index, whatever the
 * thread count.
 */
TEST(SimJobRunner, ResultsComeBackInSubmissionOrder)
{
    for (unsigned jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE(jobs);
        SimJobRunner runner(jobs, Supervision{});
        std::vector<std::atomic<int>> runs(100);
        for (int i = 0; i < 100; ++i) {
            runner.add([i, &runs] {
                ++runs[i];
                RunMetrics m;
                m.retired = uint64_t(i);
                return m;
            });
        }
        const std::vector<RunMetrics> results = runner.run();
        ASSERT_EQ(results.size(), 100u);
        for (int i = 0; i < 100; ++i) {
            EXPECT_EQ(results[i].retired, uint64_t(i));
            EXPECT_EQ(runs[i].load(), 1) << "job " << i;
        }
    }
}

/**
 * A false from onOutcome dispatches no further job. With one thread
 * the one job dispatched is the prefix returned; with four, whatever
 * prefix the threads had claimed at the stop comes back, each of its
 * jobs run once, and no later job runs. (Fork isolation: see
 * test_worker_pool.)
 */
TEST(SimJobRunner, StopOnOutcomeReturnsTheDispatchedPrefix)
{
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        SimJobRunner runner(jobs, Supervision{});
        runner.setIsolation(IsolationMode::None);
        std::vector<std::atomic<int>> runs(8);
        for (int i = 0; i < 8; ++i) {
            runner.add([i, &runs] {
                ++runs[i];
                RunMetrics m;
                m.retired = uint64_t(i);
                return m;
            });
        }
        unsigned calls = 0;
        const std::vector<JobOutcome> outcomes = runner.runSupervised(
            [&](size_t, const JobOutcome &) { return ++calls > 1; });
        ASSERT_GE(outcomes.size(), 1u);
        if (jobs == 1) {
            EXPECT_EQ(outcomes.size(), 1u);
        }
        EXPECT_EQ(calls, outcomes.size());
        for (size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_TRUE(outcomes[i].ok());
            EXPECT_EQ(outcomes[i].metrics.retired, uint64_t(i));
            EXPECT_EQ(runs[i].load(), 1) << "job " << i;
        }
        for (size_t i = outcomes.size(); i < runs.size(); ++i)
            EXPECT_EQ(runs[i].load(), 0) << "job " << i;
    }
}

TEST(SimJobRunner, RunClearsTheQueue)
{
    SimJobRunner runner(2);
    runner.add([] { return RunMetrics{}; });
    EXPECT_EQ(runner.pending(), 1u);
    runner.run();
    EXPECT_EQ(runner.pending(), 0u);
    EXPECT_TRUE(runner.run().empty());
}

TEST(SimJobRunner, JobExceptionIsRethrown)
{
    for (unsigned jobs : {1u, 4u}) {
        SimJobRunner runner(jobs);
        runner.add([] { return RunMetrics{}; });
        runner.add([]() -> RunMetrics {
            throw std::runtime_error("job failed");
        });
        EXPECT_THROW(runner.run(), std::runtime_error);
    }
}

TEST(ProgramCache, MemoizesPerWorkloadAndSize)
{
    ProgramCache cache;
    const ProgramCache::Entry &a =
        cache.get("compress", WorkloadSize::Test);
    const ProgramCache::Entry &b =
        cache.get("compress", WorkloadSize::Test);
    EXPECT_EQ(&a, &b); // same entry, not a re-assembly
    EXPECT_FALSE(a.golden.empty());
    EXPECT_GT(a.goldenInstCount, 0u);
}

void
expectIdenticalMetrics(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.ipc, b.ipc); // bit-identical, not approximately
    EXPECT_EQ(a.branchMispPer1000, b.branchMispPer1000);
    EXPECT_EQ(a.outputCorrect, b.outputCorrect);
    EXPECT_EQ(a.outputBytes, b.outputBytes);
    EXPECT_EQ(a.removedFraction, b.removedFraction);
    EXPECT_EQ(a.removedByReason, b.removedByReason);
    EXPECT_EQ(a.removedByReasonMask, b.removedByReasonMask);
    EXPECT_EQ(a.irMispPer1000, b.irMispPer1000);
    EXPECT_EQ(a.avgIRPenalty, b.avgIRPenalty);
    EXPECT_EQ(a.recoveries, b.recoveries);
}

/**
 * The acceptance property: the same grid run serially and with
 * several workers yields byte-identical metrics. Simulations share
 * only const data, so worker count must not leak into results.
 */
TEST(SimJobRunner, ParallelRunsAreDeterministic)
{
    const std::vector<std::string> names = {"m88ksim", "compress"};

    const auto buildGrid = [&](SimJobRunner<> &runner) {
        for (const std::string &name : names) {
            const ProgramCache::Entry &e =
                ProgramCache::global().get(name, WorkloadSize::Test);
            runner.add([&e] {
                return runSS(e.program, ss64x4Params(), "SS(64x4)",
                             e.golden);
            });
            runner.add([&e] {
                return runSlipstream(e.program, cmp2x64x4Params(),
                                     e.golden);
            });
        }
    };

    SimJobRunner serial(1);
    buildGrid(serial);
    const std::vector<RunMetrics> want = serial.run();

    SimJobRunner parallel(4);
    buildGrid(parallel);
    const std::vector<RunMetrics> got = parallel.run();

    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("grid index " + std::to_string(i));
        expectIdenticalMetrics(want[i], got[i]);
        EXPECT_TRUE(got[i].outputCorrect);
    }
}

/**
 * The satellite regression: one throwing job must not void its
 * siblings — N-1 good results survive, with the failure classified
 * in its own Outcome slot.
 */
TEST(SimJobRunner, SiblingResultsSurviveOneThrowingJob)
{
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        SimJobRunner runner(jobs, Supervision{});
        for (int i = 0; i < 8; ++i) {
            runner.add([i]() -> RunMetrics {
                if (i == 3)
                    throw std::runtime_error("trial 3 blew up");
                RunMetrics m;
                m.retired = uint64_t(i);
                return m;
            });
        }
        const std::vector<JobOutcome> outcomes =
            runner.runSupervised();
        ASSERT_EQ(outcomes.size(), 8u);
        for (int i = 0; i < 8; ++i) {
            if (i == 3) {
                EXPECT_EQ(outcomes[i].status,
                          JobOutcome::Status::Error);
                EXPECT_EQ(outcomes[i].errorKind, ErrorKind::Unknown);
                EXPECT_NE(
                    outcomes[i].errorMessage.find("trial 3 blew up"),
                    std::string::npos);
            } else {
                EXPECT_TRUE(outcomes[i].ok());
                EXPECT_EQ(outcomes[i].metrics.retired, uint64_t(i));
            }
        }
    }
}

/**
 * The acceptance property: a deliberately hung job is reaped as
 * timed-out within the configured deadline — via cooperative
 * cancellation, not process death — and its siblings are unharmed.
 */
TEST(SimJobRunner, HungJobReapedAsTimedOutWithoutVoidingBatch)
{
    Supervision sup;
    sup.timeoutMs = 50;
    SimJobRunner runner(2, sup);
    runner.add([](const CancelToken &cancel) {
        RunMetrics m;
        while (!cancel.cancelled()) // a stuck trial, cooperative
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        m.cancelled = true;
        return m;
    });
    runner.add([] {
        RunMetrics m;
        m.retired = 7;
        return m;
    });

    const auto start = std::chrono::steady_clock::now();
    const std::vector<JobOutcome> outcomes = runner.runSupervised();
    const auto elapsed = std::chrono::steady_clock::now() - start;

    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, JobOutcome::Status::TimedOut);
    EXPECT_TRUE(outcomes[1].ok());
    EXPECT_EQ(outcomes[1].metrics.retired, 7u);
    // Reaped within the deadline plus slack, not after minutes.
    EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(SimJobRunner, SerialPathAlsoEnforcesTheDeadline)
{
    Supervision sup;
    sup.timeoutMs = 50;
    SimJobRunner runner(1, sup);
    runner.add([](const CancelToken &cancel) {
        while (!cancel.cancelled())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return RunMetrics{};
    });
    runner.add([] { return RunMetrics{}; });
    const std::vector<JobOutcome> outcomes = runner.runSupervised();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, JobOutcome::Status::TimedOut);
    EXPECT_TRUE(outcomes[1].ok());
}

TEST(SimJobRunner, RetryableFailuresRetryWithBoundedAttempts)
{
    SimJobRunner runner(1, Supervision{});
    std::atomic<int> calls{0};
    runner.add([&]() -> RunMetrics {
        if (++calls <= int(Supervision::kRetries))
            throw std::system_error(std::make_error_code(
                std::errc::resource_unavailable_try_again));
        RunMetrics m;
        m.retired = 1;
        return m;
    });
    const std::vector<JobOutcome> outcomes = runner.runSupervised();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].attempts, Supervision::kRetries + 1);
    EXPECT_EQ(calls.load(), int(Supervision::kRetries) + 1);
}

TEST(SimJobRunner, ExhaustedRetriesReportTheError)
{
    SimJobRunner runner(1, Supervision{});
    std::atomic<int> calls{0};
    runner.add([&]() -> RunMetrics {
        ++calls;
        throw std::bad_alloc();
    });
    const std::vector<JobOutcome> outcomes = runner.runSupervised();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobOutcome::Status::Error);
    EXPECT_EQ(outcomes[0].errorKind, ErrorKind::Resource);
    EXPECT_EQ(outcomes[0].attempts, Supervision::kRetries + 1);
    EXPECT_EQ(calls.load(), int(Supervision::kRetries) + 1);
}

TEST(SimJobRunner, DeterministicFailuresAreNeverRetried)
{
    SimJobRunner runner(1, Supervision{});
    std::atomic<int> calls{0};
    runner.add([&]() -> RunMetrics {
        ++calls;
        SLIP_FATAL("bad trial configuration");
    });
    const std::vector<JobOutcome> outcomes = runner.runSupervised();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobOutcome::Status::Error);
    EXPECT_EQ(outcomes[0].errorKind, ErrorKind::UserError);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(calls.load(), 1);
}

TEST(SimJobRunner, LegacyRunTurnsTimeoutsIntoFatal)
{
    Supervision sup;
    sup.timeoutMs = 50;
    SimJobRunner runner(1, sup);
    runner.add([](const CancelToken &cancel) {
        while (!cancel.cancelled())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return RunMetrics{};
    });
    EXPECT_THROW(runner.run(), FatalError);
}

TEST(Supervision, EnvKnobsOverrideDefaults)
{
    setenv("SLIPSTREAM_TRIAL_TIMEOUT_MS", "2500", 1);
    const Supervision s = Supervision::fromEnv();
    EXPECT_EQ(s.timeoutMs, 2500u);
    unsetenv("SLIPSTREAM_TRIAL_TIMEOUT_MS");
}

TEST(Supervision, GarbageEnvValuesFallBackToDefaults)
{
    const Supervision defaults;
    setenv("SLIPSTREAM_TRIAL_TIMEOUT_MS", "soon", 1);
    const Supervision s = Supervision::fromEnv();
    EXPECT_EQ(s.timeoutMs, defaults.timeoutMs);
    unsetenv("SLIPSTREAM_TRIAL_TIMEOUT_MS");
}

TEST(EnvKnobs, U64AndFlagValidation)
{
    setenv("SLIP_TEST_KNOB", "123", 1);
    EXPECT_EQ(envU64("SLIP_TEST_KNOB", 7), 123u);
    setenv("SLIP_TEST_KNOB", "12x", 1);
    EXPECT_EQ(envU64("SLIP_TEST_KNOB", 7), 7u); // warns, falls back
    setenv("SLIP_TEST_KNOB", "-5", 1);
    EXPECT_EQ(envU64("SLIP_TEST_KNOB", 7), 7u);
    unsetenv("SLIP_TEST_KNOB");
    EXPECT_EQ(envU64("SLIP_TEST_KNOB", 7), 7u);

    setenv("SLIP_TEST_FLAG", "yes", 1);
    EXPECT_TRUE(envFlag("SLIP_TEST_FLAG", false));
    setenv("SLIP_TEST_FLAG", "OFF", 1);
    EXPECT_FALSE(envFlag("SLIP_TEST_FLAG", true));
    setenv("SLIP_TEST_FLAG", "banana", 1);
    EXPECT_TRUE(envFlag("SLIP_TEST_FLAG", true)); // warns, falls back
    unsetenv("SLIP_TEST_FLAG");
    EXPECT_FALSE(envFlag("SLIP_TEST_FLAG", false));
}

TEST(DefaultJobs, EnvOverrideWins)
{
    setenv("SLIPSTREAM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    unsetenv("SLIPSTREAM_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(DefaultJobs, GarbageFallsBackToHardware)
{
    setenv("SLIPSTREAM_JOBS", "not-a-number", 1);
    EXPECT_GE(defaultJobs(), 1u);
    unsetenv("SLIPSTREAM_JOBS");
}

} // namespace
} // namespace slip
