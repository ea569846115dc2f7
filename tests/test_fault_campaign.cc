#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "harness/fault_campaign.hh"

namespace slip
{
namespace
{

FaultCampaignConfig
smallConfig()
{
    FaultCampaignConfig cfg;
    cfg.workloads = {"m88ksim", "li"};
    cfg.trialsPerWorkload = 6;
    // Keep test journals out of results/.
    cfg.journalPath = "test_fault_campaign.journal.jsonl";
    return cfg;
}

uint64_t
outcomeSum(const CampaignTally &t)
{
    uint64_t sum = 0;
    for (unsigned o = 0; o < kNumTrialOutcomes; ++o)
        sum += t.byOutcome[o];
    return sum;
}

TEST(FaultCampaign, EveryTrialClassifiedAndNoneHang)
{
    const FaultCampaignConfig cfg = smallConfig();
    const FaultCampaignResult result = runFaultCampaign(cfg);

    ASSERT_EQ(result.trials.size(),
              cfg.workloads.size() * cfg.trialsPerWorkload);
    EXPECT_EQ(result.total.trials, result.trials.size());
    // Every trial lands in exactly one outcome bucket.
    EXPECT_EQ(outcomeSum(result.total), result.total.trials);
    for (const auto &[name, tally] : result.perWorkload)
        EXPECT_EQ(outcomeSum(tally), tally.trials) << name;
    // The cycle cap plus watchdog mean no trial may hang.
    EXPECT_EQ(result.total.outcomes(TrialOutcome::Hung), 0u);
    // The steady-state injection window must actually land faults.
    EXPECT_GT(result.total.faultsInjected, 0u);
    for (const TrialRecord &trial : result.trials) {
        EXPECT_FALSE(trial.metrics.hung) << trial.workload;
        EXPECT_GE(trial.plans.size(), cfg.minFaultsPerTrial);
        EXPECT_LE(trial.plans.size(), cfg.maxFaultsPerTrial);
    }
}

TEST(FaultCampaign, DeterministicAcrossWorkerCounts)
{
    const FaultCampaignConfig cfg = smallConfig();
    const char *prior = std::getenv("SLIPSTREAM_JOBS");
    const std::string saved = prior ? prior : "";

    setenv("SLIPSTREAM_JOBS", "1", 1);
    const std::string serial = campaignJson(cfg, runFaultCampaign(cfg));
    setenv("SLIPSTREAM_JOBS", "3", 1);
    const std::string parallel =
        campaignJson(cfg, runFaultCampaign(cfg));

    if (prior)
        setenv("SLIPSTREAM_JOBS", saved.c_str(), 1);
    else
        unsetenv("SLIPSTREAM_JOBS");

    EXPECT_EQ(serial, parallel);
}

TEST(FaultCampaign, ReliableModeHasNoSilentCorruption)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.reliableMode = true;
    cfg.trialsPerWorkload = 8;
    const FaultCampaignResult result = runFaultCampaign(cfg);

    EXPECT_EQ(result.total.outcomes(TrialOutcome::SilentCorrupt), 0u);
    EXPECT_EQ(result.total.outcomes(TrialOutcome::DetectedButCorrupt),
              0u);
    EXPECT_EQ(result.total.outcomes(TrialOutcome::Hung), 0u);
    // Full redundancy: the default reliable target mix always finds
    // a victim.
    EXPECT_EQ(result.total.faultsInjected, result.total.faultsPlanned);
}

TEST(FaultCampaign, ReliableTargetsExcludeMemoryAndPredictor)
{
    for (FaultTarget t : defaultCampaignTargets(true)) {
        EXPECT_NE(t, FaultTarget::MemoryCell);
        EXPECT_NE(t, FaultTarget::IRPredictor);
    }
    // The slipstream mix covers every target.
    EXPECT_EQ(defaultCampaignTargets(false).size(), 8u);
}

TEST(FaultCampaign, JsonReportIsWellFormedAndWritable)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.trialsPerWorkload = 2;
    const FaultCampaignResult result = runFaultCampaign(cfg);
    const std::string json = campaignJson(cfg, result);

    // Shape: balanced braces/brackets, the report keys present.
    long braces = 0, brackets = 0;
    for (char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    for (const char *key :
         {"\"campaign\"", "\"mode\"", "\"outcomes\"", "\"targets\"",
          "\"detection_latency_cycles\"", "\"workloads\"",
          "\"detection_latency_histogram\"", "\"silent_corrupt\"",
          "\"degraded_runs\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;

    // Per-target histogram counts match the scalar sample count, so
    // the distribution is complete, not a subset.
    uint64_t histCount = 0;
    for (const auto &[target, hist] : result.total.latencyByTarget)
        histCount += hist.count();
    EXPECT_EQ(histCount, result.total.latencySamples);

    // writeFaultReport produces a readable JSON array at the path,
    // and the atomic temp sibling is gone once the rename lands.
    const std::string path = "test_fault_campaign_report.json";
    writeFaultReport({json, json}, path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    EXPECT_EQ(text.front(), '[');
    EXPECT_NE(text.find("\"campaign\""), std::string::npos);
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::remove(path.c_str());
}

TEST(FaultCampaign, ReportFailureWarnsInsteadOfThrowing)
{
    // Parent "directory" is a regular file: creation must fail, and
    // the failure must be a warning, not an exception or a crash.
    const std::string blocker = "test_fault_report_blocker";
    {
        std::ofstream out(blocker, std::ios::trunc);
        out << "not a directory\n";
    }
    EXPECT_NO_THROW(
        writeFaultReport({"{}"}, blocker + "/sub/report.json"));
    std::remove(blocker.c_str());
}

TEST(FaultCampaign, OutcomeNamesRoundTripThroughTheJournal)
{
    for (unsigned o = 0; o < kNumTrialOutcomes; ++o) {
        TrialOutcome parsed;
        ASSERT_TRUE(trialOutcomeFromName(
            trialOutcomeName(TrialOutcome(o)), parsed));
        EXPECT_EQ(parsed, TrialOutcome(o));
    }
    TrialOutcome dummy;
    EXPECT_FALSE(trialOutcomeFromName("not_an_outcome", dummy));
    EXPECT_FALSE(trialOutcomeFromName("", dummy));
}

/**
 * The tentpole acceptance property: kill a campaign at any point,
 * rerun in resume mode, and the final report comes out byte-identical
 * — for any SLIPSTREAM_JOBS. Simulated here by truncating the journal
 * at several cut points; one leg also appends a torn (half-written)
 * final line, which resume must skip, not choke on.
 */
TEST(FaultCampaign, ResumeReproducesTheReportByteForByte)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_determinism";
    cfg.trialsPerWorkload = 4; // 8 trials across the two workloads
    cfg.journalPath = "test_fault_campaign.resume.jsonl";

    const char *prior = std::getenv("SLIPSTREAM_JOBS");
    const std::string saved = prior ? prior : "";

    const FaultCampaignResult full = runFaultCampaign(cfg);
    const std::string expected = campaignJson(cfg, full);

    // Capture the uninterrupted run's journal lines.
    std::vector<std::string> lines;
    {
        std::ifstream in(cfg.journalPath);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), full.trials.size());

    const size_t cuts[] = {0, 1, lines.size() / 2, lines.size() - 1};
    for (size_t cut : cuts) {
        for (const char *jobs : {"1", "3"}) {
            SCOPED_TRACE(std::string("cut=") + std::to_string(cut) +
                         " jobs=" + jobs);
            setenv("SLIPSTREAM_JOBS", jobs, 1);
            // A kill after `cut` completed trials: journal holds their
            // lines plus, on one leg, a torn line from the victim.
            {
                std::ofstream out(cfg.journalPath, std::ios::trunc);
                for (size_t i = 0; i < cut; ++i)
                    out << lines[i] << '\n';
                if (cut == 1)
                    out << lines[cut].substr(0, lines[cut].size() / 2);
            }
            FaultCampaignConfig again = cfg;
            again.resume = true;
            const std::string got =
                campaignJson(again, runFaultCampaign(again));
            EXPECT_EQ(got, expected);
        }
    }

    if (prior)
        setenv("SLIPSTREAM_JOBS", saved.c_str(), 1);
    else
        unsetenv("SLIPSTREAM_JOBS");
    std::remove(cfg.journalPath.c_str());
}

/**
 * Kill-during-write interaction: the journal ends in a torn partial
 * line AND the last *complete* record is a timed-out trial. Resume
 * must (a) skip the torn line and re-run only that trial, and (b)
 * restore the timed_out record as a terminal result — journaled
 * timeouts are not retried, or a resumed report could disagree with
 * the run it resumed.
 */
TEST(FaultCampaign, ResumeRestoresTimedOutRecordBeforeTornLine)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_torn_timeout";
    cfg.trialsPerWorkload = 4; // 8 trials across the two workloads
    cfg.journalPath = "test_fault_campaign.torn.jsonl";

    const FaultCampaignResult full = runFaultCampaign(cfg);
    std::vector<std::string> lines;
    {
        std::ifstream in(cfg.journalPath);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), full.trials.size());
    const size_t timedOutTrial = lines.size() - 2;
    const size_t tornTrial = lines.size() - 1;
    // Precondition: the live run did NOT time out here, so if resume
    // were to quietly re-run the trial it would get a different
    // outcome and the assertion below would catch it.
    ASSERT_NE(full.trials[timedOutTrial].outcome,
              TrialOutcome::TimedOut);

    // Tamper the last complete record into a timeout, then append
    // the first half of the final record as the torn line a killed
    // writer leaves behind.
    std::string tampered = lines[timedOutTrial];
    const std::string key = "\"outcome\":\"";
    const size_t at = tampered.find(key);
    ASSERT_NE(at, std::string::npos);
    const size_t valueEnd = tampered.find('"', at + key.size());
    ASSERT_NE(valueEnd, std::string::npos);
    tampered.replace(at + key.size(), valueEnd - (at + key.size()),
                     "timed_out");
    {
        std::ofstream out(cfg.journalPath, std::ios::trunc);
        for (size_t i = 0; i < timedOutTrial; ++i)
            out << lines[i] << '\n';
        out << tampered << '\n';
        out << lines[tornTrial].substr(0, lines[tornTrial].size() / 2);
    }

    FaultCampaignConfig again = cfg;
    again.resume = true;
    const FaultCampaignResult resumed = runFaultCampaign(again);
    const std::string resumedJson = campaignJson(again, resumed);

    ASSERT_EQ(resumed.trials.size(), full.trials.size());
    // The tampered record was restored, not re-executed.
    EXPECT_EQ(resumed.trials[timedOutTrial].outcome,
              TrialOutcome::TimedOut);
    EXPECT_EQ(resumed.total.outcomes(TrialOutcome::TimedOut),
              full.total.outcomes(TrialOutcome::TimedOut) + 1);
    // The torn trial was re-run and reproduced the live run exactly.
    EXPECT_EQ(resumed.trials[tornTrial].outcome,
              full.trials[tornTrial].outcome);
    EXPECT_EQ(resumed.trials[tornTrial].cycles,
              full.trials[tornTrial].cycles);
    // Every other trial came back verbatim.
    for (size_t i = 0; i < timedOutTrial; ++i) {
        EXPECT_EQ(resumed.trials[i].outcome, full.trials[i].outcome)
            << "trial " << i;
        EXPECT_EQ(resumed.trials[i].cycles, full.trials[i].cycles)
            << "trial " << i;
    }
    EXPECT_EQ(outcomeSum(resumed.total), resumed.total.trials);

    // The re-run appended the torn trial's record, so a second resume
    // restores all trials (timeout included, still without retrying
    // it) and must render the identical report.
    const std::string secondJson =
        campaignJson(again, runFaultCampaign(again));
    EXPECT_EQ(secondJson, resumedJson);

    std::remove(cfg.journalPath.c_str());
}

/** A journal from a different campaign or seed must never leak in. */
TEST(FaultCampaign, ResumeIgnoresForeignJournalEntries)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_isolation";
    cfg.workloads = {"m88ksim"};
    cfg.trialsPerWorkload = 2;
    cfg.journalPath = "test_fault_campaign.foreign.jsonl";

    const FaultCampaignResult fresh = runFaultCampaign(cfg);
    const std::string expected = campaignJson(cfg, fresh);

    // Poison the journal with entries that would corrupt the tallies
    // if resume matched them: wrong campaign, wrong seed, wrong
    // workload, out-of-range trial, unknown outcome.
    {
        std::ofstream out(cfg.journalPath, std::ios::trunc);
        out << "{\"campaign\":\"someone_else\",\"seed\":" << cfg.seed
            << ",\"trial\":0,\"workload\":\"m88ksim\","
               "\"outcome\":\"crashed\",\"planned\":99,\"injected\":99,"
               "\"detected\":99,\"degraded\":1,\"latency_samples\":9,"
               "\"latency_total\":9,\"latency_max\":9,\"cycles\":9,"
               "\"error\":\"\"}\n";
        out << "{\"campaign\":\"resume_isolation\",\"seed\":1,"
               "\"trial\":0,\"workload\":\"m88ksim\","
               "\"outcome\":\"crashed\",\"planned\":99,\"injected\":99,"
               "\"detected\":99,\"degraded\":1,\"latency_samples\":9,"
               "\"latency_total\":9,\"latency_max\":9,\"cycles\":9,"
               "\"error\":\"\"}\n";
        out << "{\"campaign\":\"resume_isolation\",\"seed\":"
            << cfg.seed
            << ",\"trial\":0,\"workload\":\"wrong_workload\","
               "\"outcome\":\"crashed\",\"planned\":99,\"injected\":99,"
               "\"detected\":99,\"degraded\":1,\"latency_samples\":9,"
               "\"latency_total\":9,\"latency_max\":9,\"cycles\":9,"
               "\"error\":\"\"}\n";
        out << "{\"campaign\":\"resume_isolation\",\"seed\":"
            << cfg.seed
            << ",\"trial\":999,\"workload\":\"m88ksim\","
               "\"outcome\":\"crashed\",\"planned\":99,\"injected\":99,"
               "\"detected\":99,\"degraded\":1,\"latency_samples\":9,"
               "\"latency_total\":9,\"latency_max\":9,\"cycles\":9,"
               "\"error\":\"\"}\n";
        out << "{\"campaign\":\"resume_isolation\",\"seed\":"
            << cfg.seed
            << ",\"trial\":0,\"workload\":\"m88ksim\","
               "\"outcome\":\"abducted\",\"planned\":99,\"injected\":99,"
               "\"detected\":99,\"degraded\":1,\"latency_samples\":9,"
               "\"latency_total\":9,\"latency_max\":9,\"cycles\":9,"
               "\"error\":\"\"}\n";
    }
    FaultCampaignConfig again = cfg;
    again.resume = true;
    const std::string got =
        campaignJson(again, runFaultCampaign(again));
    EXPECT_EQ(got, expected);
    std::remove(cfg.journalPath.c_str());
}

/**
 * The policy matrix: for every A-stream shortening policy, the
 * campaign journal must come out byte-identical across worker counts
 * AND isolation modes. A policy that consulted wall-clock, worker
 * identity, or shared mutable state would diverge here.
 */
TEST(FaultCampaign, PolicyMatrixJournalsAreByteIdentical)
{
    const char *prior = std::getenv("SLIPSTREAM_JOBS");
    const std::string saved = prior ? prior : "";
    const std::string journal = "test_fault_campaign.policy.jsonl";

    for (size_t p = 0; p < kNumAStreamPolicies; ++p) {
        const AStreamPolicyKind kind = AStreamPolicyKind(p);
        const std::string policyName = aStreamPolicyName(kind);
        FaultCampaignConfig cfg;
        cfg.name = "policy_matrix_" + policyName;
        cfg.workloads = {"m88ksim"};
        cfg.trialsPerWorkload = 3;
        cfg.journalPath = journal;
        cfg.params.aPolicy.kind = kind;

        std::string reference;
        for (const char *jobs : {"1", "3"}) {
            for (IsolationMode iso :
                 {IsolationMode::None, IsolationMode::Fork}) {
                SCOPED_TRACE(policyName + " jobs=" + jobs +
                             " isolation=" +
                             (iso == IsolationMode::Fork ? "fork"
                                                         : "none"));
                setenv("SLIPSTREAM_JOBS", jobs, 1);
                std::remove(journal.c_str());
                cfg.isolation = iso;
                runFaultCampaign(cfg);
                std::ifstream in(journal, std::ios::binary);
                ASSERT_TRUE(in.good());
                std::stringstream buf;
                buf << in.rdbuf();
                if (reference.empty())
                    reference = buf.str();
                else
                    EXPECT_EQ(buf.str(), reference);
            }
        }
        // Every line carries the policy tag resume matches against.
        EXPECT_NE(reference.find("\"policy\":\"" + policyName + "\""),
                  std::string::npos);
    }

    if (prior)
        setenv("SLIPSTREAM_JOBS", saved.c_str(), 1);
    else
        unsetenv("SLIPSTREAM_JOBS");
    std::remove(journal.c_str());
}

/**
 * A journal written under one A-stream policy must never satisfy a
 * resume under another (the PR-8 backend-tag contract extended to
 * policies): trial dynamics differ per policy, so adopting a foreign
 * record would report results the configuration never produced.
 */
TEST(FaultCampaign, ResumeRejectsForeignPolicyJournal)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_policy";
    cfg.workloads = {"m88ksim"};
    cfg.trialsPerWorkload = 3;
    cfg.journalPath = "test_fault_campaign.policy_foreign.jsonl";
    cfg.params.aPolicy.kind = AStreamPolicyKind::Reliability;

    const FaultCampaignResult fresh = runFaultCampaign(cfg);
    const std::string expected = campaignJson(cfg, fresh);
    std::vector<std::string> lines;
    {
        std::ifstream in(cfg.journalPath);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), fresh.trials.size());

    const std::string ownTag = ",\"policy\":\"reliability\"";
    for (const std::string &line : lines)
        ASSERT_NE(line.find(ownTag), std::string::npos) << line;

    // Re-tag a line (an empty tag drops the field) and set its outcome
    // to `crashed`: if resume matched it despite the foreign tag, the
    // bogus outcome would land in the report.
    const auto poison = [&](std::string line, const std::string &tag) {
        line.replace(line.find(ownTag), ownTag.size(), tag);
        const std::string outKey = "\"outcome\":\"";
        const size_t outAt = line.find(outKey) + outKey.size();
        line.replace(outAt, line.find('"', outAt) - outAt, "crashed");
        return line;
    };
    // Trial 0 claims the default `ir` policy.
    const std::string foreign = poison(lines[0], ",\"policy\":\"ir\"");
    // Trial 1 has no policy tag at all: legacy journals are only sound
    // for the paper's default (ir) policy, so a reliability resume
    // must re-run this trial too.
    const std::string legacy = poison(lines[1], "");
    // Trial 2 was journaled by an older build under a policy that no
    // longer exists.
    const std::string retired =
        poison(lines[2], ",\"policy\":\"runahead\"");
    {
        std::ofstream out(cfg.journalPath, std::ios::trunc);
        out << foreign << '\n' << legacy << '\n' << retired << '\n';
    }

    FaultCampaignConfig again = cfg;
    again.resume = true;
    const FaultCampaignResult resumed = runFaultCampaign(again);
    EXPECT_EQ(campaignJson(again, resumed), expected);
    EXPECT_EQ(resumed.total.outcomes(TrialOutcome::Crashed), 0u);
    std::remove(cfg.journalPath.c_str());
}

/**
 * The flip side of the legacy-journal rule: a pre-policy journal line
 * (no `policy` field) IS adopted by an `ir` resume — those journals
 * were written by the default configuration and remain sound for it.
 */
TEST(FaultCampaign, ResumeAdoptsLegacyJournalForDefaultPolicy)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_policy_legacy";
    cfg.workloads = {"m88ksim"};
    cfg.trialsPerWorkload = 2;
    cfg.journalPath = "test_fault_campaign.policy_legacy.jsonl";

    const FaultCampaignResult fresh = runFaultCampaign(cfg);
    ASSERT_NE(fresh.trials[0].outcome, TrialOutcome::TimedOut);
    std::vector<std::string> lines;
    {
        std::ifstream in(cfg.journalPath);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), fresh.trials.size());

    // Strip the policy tag and tamper the outcome into a terminal
    // timeout: if the legacy line is adopted (it must be), the
    // timeout is restored rather than the trial re-run.
    std::string legacy = lines[0];
    const size_t tagAt = legacy.find(",\"policy\":\"ir\"");
    ASSERT_NE(tagAt, std::string::npos);
    legacy.erase(tagAt, std::string(",\"policy\":\"ir\"").size());
    const std::string outKey = "\"outcome\":\"";
    const size_t outAt = legacy.find(outKey);
    ASSERT_NE(outAt, std::string::npos);
    const size_t outEnd = legacy.find('"', outAt + outKey.size());
    legacy.replace(outAt + outKey.size(),
                   outEnd - (outAt + outKey.size()), "timed_out");
    {
        std::ofstream out(cfg.journalPath, std::ios::trunc);
        out << legacy << '\n';
    }

    FaultCampaignConfig again = cfg;
    again.resume = true;
    const FaultCampaignResult resumed = runFaultCampaign(again);
    ASSERT_EQ(resumed.trials.size(), fresh.trials.size());
    EXPECT_EQ(resumed.trials[0].outcome, TrialOutcome::TimedOut);
    std::remove(cfg.journalPath.c_str());
}

} // namespace
} // namespace slip
