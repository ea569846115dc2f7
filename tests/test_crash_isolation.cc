/**
 * Crash containment at the campaign level: a trial that kills its
 * worker process (SIGSEGV, _exit, spin-until-SIGKILL) must cost
 * exactly that trial — classified, journaled with triage, quarantined
 * when poisoned — while every sibling completes, and healthy results
 * must be byte-identical whatever the isolation mode or worker count.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "harness/fault_report.hh"
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

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/**
 * Journal lines keyed by trial index. The journal is an append-on-
 * completion crash log, so its *order* tracks completion order (which
 * legitimately varies with worker count); its *content* per trial is
 * what must be invariant.
 */
std::map<uint64_t, std::string>
journalByTrial(const std::string &path)
{
    std::map<uint64_t, std::string> byTrial;
    for (const std::string &line : readLines(path)) {
        const std::string needle = "\"trial\":";
        const size_t at = line.find(needle);
        if (at == std::string::npos)
            continue;
        byTrial[std::strtoull(line.c_str() + at + needle.size(),
                              nullptr, 10)] = line;
    }
    return byTrial;
}

FaultCampaignConfig
baseConfig(const std::string &journal)
{
    FaultCampaignConfig cfg;
    cfg.name = "crash_isolation_test";
    cfg.workloads = {"compress"};
    cfg.trialsPerWorkload = 6;
    cfg.journalPath = journal;
    cfg.journalFsync = 0; // durability is not under test here
    cfg.quarantineDir = "test_crash_isolation.quarantine";
    return cfg;
}

class CrashIsolation : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setLogQuiet(true);
    }

    void
    TearDown() override
    {
        setLogQuiet(false);
        for (const std::string &j : journals_)
            std::remove(j.c_str());
        std::error_code ec;
        std::filesystem::remove_all(
            "test_crash_isolation.quarantine", ec);
    }

    std::string
    journal(const std::string &tag)
    {
        journals_.push_back("test_crash_isolation." + tag + ".jsonl");
        return journals_.back();
    }

    std::vector<std::string> journals_;
};

TEST_F(CrashIsolation, MixedCampaignContainsWorkerDeaths)
{
    FaultCampaignConfig cfg = baseConfig(journal("mixed"));
    cfg.isolation = IsolationMode::Fork;
    cfg.trialHook = [](size_t trial) {
        if (trial == 1)
            raise(SIGSEGV);
        if (trial == 4)
            _exit(3);
    };

    const FaultCampaignResult result = runFaultCampaign(cfg);
    ASSERT_EQ(result.trials.size(), 6u);

    // The two sabotaged trials are classified with full triage.
    const TrialRecord &segv = result.trials[1];
    EXPECT_EQ(segv.outcome, TrialOutcome::Crashed);
    EXPECT_EQ(segv.crashSignal, SIGSEGV);
    EXPECT_EQ(segv.crashPhase, "run");
    EXPECT_NE(segv.error.find("SIGSEGV"), std::string::npos);

    const TrialRecord &exited = result.trials[4];
    EXPECT_EQ(exited.outcome, TrialOutcome::Crashed);
    EXPECT_EQ(exited.crashSignal, 0);
    EXPECT_EQ(exited.crashExit, 3);

    // Every sibling completed as if nothing happened.
    for (size_t i : {0u, 2u, 3u, 5u}) {
        EXPECT_NE(result.trials[i].outcome, TrialOutcome::Crashed)
            << "trial " << i;
        EXPECT_NE(result.trials[i].outcome, TrialOutcome::TimedOut)
            << "trial " << i;
    }

    // The tally's crash histogram names both causes.
    EXPECT_EQ(result.total.outcomes(TrialOutcome::Crashed), 2u);
    ASSERT_EQ(result.total.crashBySignal.size(), 2u);
    EXPECT_EQ(result.total.crashBySignal.at("SIGSEGV"), 1u);
    EXPECT_EQ(result.total.crashBySignal.at("exit_3"), 1u);

    // Both trials crash on every dispatch, so both end poisoned and
    // quarantined as repro bundles.
    namespace fs = std::filesystem;
    const fs::path q = "test_crash_isolation.quarantine";
    EXPECT_TRUE(
        fs::exists(q / "crash_isolation_test_trial_1/program.s"));
    EXPECT_TRUE(
        fs::exists(q / "crash_isolation_test_trial_1/README.txt"));
    EXPECT_TRUE(
        fs::exists(q / "crash_isolation_test_trial_4/program.s"));
}

TEST_F(CrashIsolation, JournalCarriesTriageOnlyForCrashedTrials)
{
    FaultCampaignConfig mixed = baseConfig(journal("triage"));
    mixed.isolation = IsolationMode::Fork;
    mixed.trialHook = [](size_t trial) {
        if (trial == 1)
            raise(SIGSEGV);
    };
    runFaultCampaign(mixed);
    const std::map<uint64_t, std::string> mixedLines =
        journalByTrial(mixed.journalPath);

    FaultCampaignConfig healthy = baseConfig(journal("healthy"));
    healthy.isolation = IsolationMode::Fork;
    runFaultCampaign(healthy);
    const std::map<uint64_t, std::string> healthyLines =
        journalByTrial(healthy.journalPath);

    ASSERT_EQ(mixedLines.size(), 6u);
    ASSERT_EQ(healthyLines.size(), 6u);
    for (uint64_t i = 0; i < 6; ++i) {
        const bool crashed = i == 1;
        const std::string &line = mixedLines.at(i);
        EXPECT_EQ(line.find("\"signal\"") != std::string::npos,
                  crashed)
            << line;
        EXPECT_EQ(line.find("\"crash_phase\"") != std::string::npos,
                  crashed)
            << line;
        // Healthy trials journal byte-identically whether or not a
        // sibling crashed — the containment left no residue.
        if (!crashed) {
            EXPECT_EQ(line, healthyLines.at(i));
        }
    }
}

TEST_F(CrashIsolation, HealthyCampaignByteIdenticalAcrossModes)
{
    std::string baselineReport;
    std::map<uint64_t, std::string> baselineJournal;

    const IsolationMode modes[] = {IsolationMode::None,
                                   IsolationMode::Fork};
    for (IsolationMode mode : modes) {
        for (unsigned workers : {1u, 3u}) {
            FaultCampaignConfig cfg = baseConfig(
                journal(std::string("det_") + isolationModeName(mode) +
                        "_" + std::to_string(workers)));
            cfg.isolation = mode;
            cfg.workers = workers;
            const std::string report =
                campaignJson(cfg, runFaultCampaign(cfg));
            const std::map<uint64_t, std::string> lines =
                journalByTrial(cfg.journalPath);
            if (baselineReport.empty()) {
                baselineReport = report;
                baselineJournal = lines;
                continue;
            }
            EXPECT_EQ(report, baselineReport)
                << isolationModeName(mode) << "/" << workers;
            EXPECT_EQ(lines, baselineJournal)
                << isolationModeName(mode) << "/" << workers;
        }
    }
    // The healthy campaign's report must not mention worker deaths.
    EXPECT_EQ(baselineReport.find("worker_crashes"),
              std::string::npos);
}

TEST_F(CrashIsolation, ResumeAfterInterruptionByteIdentical)
{
    // The uninterrupted run is the reference.
    FaultCampaignConfig ref = baseConfig(journal("resume_ref"));
    const std::string refReport =
        campaignJson(ref, runFaultCampaign(ref));
    const std::vector<std::string> refLines =
        readLines(ref.journalPath);
    ASSERT_EQ(refLines.size(), 6u);

    // Simulate a supervisor killed after 3 journaled trials, then a
    // --resume restart — in both isolation modes.
    for (IsolationMode mode :
         {IsolationMode::None, IsolationMode::Fork}) {
        FaultCampaignConfig cfg = baseConfig(
            journal(std::string("resume_") + isolationModeName(mode)));
        cfg.isolation = mode;
        cfg.resume = true;
        {
            std::ofstream out(cfg.journalPath, std::ios::trunc);
            for (size_t i = 0; i < 3; ++i)
                out << refLines[i] << "\n";
        }
        const std::string report =
            campaignJson(cfg, runFaultCampaign(cfg));
        EXPECT_EQ(report, refReport) << isolationModeName(mode);
    }
}

TEST_F(CrashIsolation, ResumeRestoresCrashedTrialsWithTriage)
{
    // A journaled crashed trial must survive resume — including its
    // crash histogram entry — without re-running the poison trial.
    FaultCampaignConfig first = baseConfig(journal("resume_crash"));
    first.isolation = IsolationMode::Fork;
    first.trialHook = [](size_t trial) {
        if (trial == 1)
            raise(SIGSEGV);
    };
    const FaultCampaignResult ran = runFaultCampaign(first);
    const std::string firstReport = campaignJson(first, ran);

    FaultCampaignConfig again = baseConfig(first.journalPath);
    again.isolation = IsolationMode::Fork;
    again.resume = true; // no trialHook: nothing may re-run trial 1
    const FaultCampaignResult resumed = runFaultCampaign(again);
    EXPECT_EQ(campaignJson(again, resumed), firstReport);
    EXPECT_EQ(resumed.trials[1].outcome, TrialOutcome::Crashed);
    EXPECT_EQ(resumed.trials[1].crashSignal, SIGSEGV);
    EXPECT_EQ(resumed.total.crashBySignal.at("SIGSEGV"), 1u);
}

TEST_F(CrashIsolation, SpinningTrialTimesOutUnderFork)
{
    EnvGuard deadline("SLIPSTREAM_TRIAL_TIMEOUT_MS", "1500");
    FaultCampaignConfig cfg = baseConfig(journal("spin"));
    cfg.isolation = IsolationMode::Fork;
    cfg.trialsPerWorkload = 3;
    cfg.trialHook = [](size_t trial) {
        if (trial == 0) {
            volatile uint64_t sink = 0;
            for (;;)
                sink = sink + 1;
        }
    };

    const FaultCampaignResult result = runFaultCampaign(cfg);
    ASSERT_EQ(result.trials.size(), 3u);
    EXPECT_EQ(result.trials[0].outcome, TrialOutcome::TimedOut);
    EXPECT_NE(result.trials[1].outcome, TrialOutcome::TimedOut);
    EXPECT_NE(result.trials[2].outcome, TrialOutcome::TimedOut);
}

TEST_F(CrashIsolation, QuarantineCapSkipsNewBundles)
{
    // The quarantine holds at most 32 bundles: at the cap, a poisoned
    // trial still gets its journaled crashed outcome, but no new repro
    // bundle lands on disk.
    namespace fs = std::filesystem;
    const fs::path q = "test_crash_isolation.quarantine";
    fs::create_directories(q);
    for (int i = 0; i < 32; ++i)
        fs::create_directory(q / ("earlier_bundle_" + std::to_string(i)));
    FaultCampaignConfig cfg = baseConfig(journal("qcap"));
    cfg.isolation = IsolationMode::Fork;
    cfg.trialsPerWorkload = 3;
    cfg.trialHook = [](size_t trial) {
        if (trial == 1)
            raise(SIGSEGV);
    };

    const FaultCampaignResult result = runFaultCampaign(cfg);
    EXPECT_EQ(result.trials[1].outcome, TrialOutcome::Crashed);
    EXPECT_FALSE(fs::exists(q / "crash_isolation_test_trial_1"));
}

TEST_F(CrashIsolation, FsyncKnobDoesNotChangeJournalContent)
{
    FaultCampaignConfig fsynced = baseConfig(journal("fsync_on"));
    fsynced.trialsPerWorkload = 2;
    fsynced.journalFsync = 1;
    runFaultCampaign(fsynced);

    FaultCampaignConfig buffered = baseConfig(journal("fsync_off"));
    buffered.trialsPerWorkload = 2;
    buffered.journalFsync = 0;
    runFaultCampaign(buffered);

    EXPECT_EQ(readLines(fsynced.journalPath),
              readLines(buffered.journalPath));
}

} // namespace
} // namespace slip
