#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "harness/checkpoint_cache.hh"
#include "harness/fault_report.hh"

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

/** A journal's non-empty lines. */
std::vector<std::string>
journalLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** `line` with one field's value (quotes included) replaced by `raw`. */
std::string
withField(std::string line, const std::string &key, const std::string &raw)
{
    const std::string tag = "\"" + key + "\":";
    const size_t at = line.find(tag);
    EXPECT_NE(at, std::string::npos) << key << " in " << line;
    if (at == std::string::npos)
        return line;
    const size_t from = at + tag.size();
    const size_t to = line[from] == '"' ? line.find('"', from + 1) + 1
                                        : line.find_first_of(",}", from);
    line.replace(from, to - from, raw);
    return line;
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

/**
 * Four in-process workers race on one workload's first trials: several
 * note the fault window at once, one captures while the others run
 * cold, and the rest restore. Every trial still reports what its cold
 * run reports. (thread-sanitize runs this.)
 */
TEST(FaultCampaign, CheckpointRaceAmongWorkersKeepsEveryTrialExact)
{
    CheckpointCache::global().clear();
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "checkpoint_race";
    cfg.workloads = {"compress"};
    cfg.trialsPerWorkload = 16;
    cfg.workers = 4;
    cfg.isolation = IsolationMode::None;
    cfg.journalPath = "test_checkpoint_race.journal.jsonl";
    std::remove(cfg.journalPath.c_str());
    const uint64_t built = CheckpointCache::global().counts().built;

    const FaultCampaignResult result = runFaultCampaign(cfg);
    const std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
    ASSERT_EQ(result.trials.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto *e =
            static_cast<const ProgramCache::Entry *>(specs[i].entry);
        JobOutcome cold;
        cold.metrics = runSlipstream(e->program, cfg.params, e->golden,
                                     specs[i].plans, specs[i].maxCycles);
        EXPECT_EQ(campaignTrialLine(cfg, i, result.trials[i]),
                  campaignTrialLine(cfg, i,
                                    recordCampaignTrial(cfg, specs[i], i,
                                                        cold)))
            << "trial " << i;
    }
    EXPECT_EQ(CheckpointCache::global().counts().built, built + 1);
    std::remove(cfg.journalPath.c_str());
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
    EXPECT_FALSE(
        std::ifstream(path + ".tmp." + std::to_string(getpid())).good());
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
    const std::vector<std::string> lines = journalLines(cfg.journalPath);
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
    const std::vector<std::string> lines = journalLines(cfg.journalPath);
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
    const std::string torn =
        lines[tornTrial].substr(0, lines[tornTrial].size() / 2);
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
        out << torn;
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

    // The torn tail was ended before the re-run appended: the
    // fragment stands alone and every other line is one whole object.
    const std::vector<std::string> after = journalLines(cfg.journalPath);
    ASSERT_EQ(after.size(), lines.size() + 1);
    EXPECT_EQ(after[tornTrial], torn);
    for (size_t i = 0; i < after.size(); ++i) {
        EXPECT_EQ(after[i].front(), '{') << after[i];
        if (i != tornTrial) {
            EXPECT_EQ(after[i].back(), '}') << after[i];
        }
    }

    // So a second resume restores all trials (timeout included, still
    // without retrying it), appends nothing, and renders the identical
    // report.
    const std::string secondJson =
        campaignJson(again, runFaultCampaign(again));
    EXPECT_EQ(secondJson, resumedJson);
    EXPECT_EQ(journalLines(cfg.journalPath), after);

    std::remove(cfg.journalPath.c_str());
}

/**
 * A journal line is adopted only if this config would have written it
 * byte for byte. Each poisoned line below is a real line with one
 * field changed; adopting any of them would skip re-running its trial.
 */
TEST(FaultCampaign, ResumeIgnoresForeignJournalEntries)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_isolation";
    cfg.workloads = {"m88ksim"};
    cfg.trialsPerWorkload = 2;
    cfg.journalPath = "test_fault_campaign.foreign.jsonl";

    const FaultCampaignResult fresh = runFaultCampaign(cfg);
    const std::string expected = campaignJson(cfg, fresh);
    const std::vector<std::string> lines = journalLines(cfg.journalPath);
    ASSERT_EQ(lines.size(), 2u);

    {
        std::ofstream out(cfg.journalPath, std::ios::trunc);
        out << withField(lines[0], "campaign", "\"someone_else\"") << '\n'
            << withField(lines[0], "seed", std::to_string(cfg.seed + 1))
            << '\n'
            << withField(lines[0], "workload", "\"wrong_workload\"")
            << '\n'
            << withField(lines[1], "trial", "999") << '\n'
            << withField(lines[1], "outcome", "\"abducted\"") << '\n'
            << withField(lines[1], "key", '"' + std::string(32, '0') + '"')
            << '\n';
    }
    FaultCampaignConfig again = cfg;
    again.resume = true;
    const FaultCampaignResult resumed = runFaultCampaign(again);
    EXPECT_EQ(campaignJson(again, resumed), expected);
    // Every trial ran here: resumed records carry no metrics.
    for (const TrialRecord &t : resumed.trials)
        EXPECT_FALSE(t.metrics.model.empty()) << "adopted a foreign line";
    std::remove(cfg.journalPath.c_str());
}

/**
 * The largest seed survives the journal: resume reads 2^64-1 back
 * exactly, so every trial is restored instead of re-run.
 */
TEST(FaultCampaign, ResumeRestoresEveryTrialAtTheLargestSeed)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_max_seed";
    cfg.workloads = {"m88ksim"};
    cfg.trialsPerWorkload = 2;
    cfg.seed = UINT64_MAX;
    cfg.journalPath = "test_fault_campaign.max_seed.jsonl";
    const std::string expected = campaignJson(cfg, runFaultCampaign(cfg));
    const std::vector<std::string> lines = journalLines(cfg.journalPath);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find(",\"seed\":18446744073709551615,"),
              std::string::npos)
        << lines[0];

    FaultCampaignConfig again = cfg;
    again.resume = true;
    const FaultCampaignResult resumed = runFaultCampaign(again);
    ASSERT_EQ(resumed.trials.size(), 2u);
    for (const TrialRecord &t : resumed.trials)
        EXPECT_TRUE(t.metrics.model.empty()) << "trial re-ran";
    EXPECT_EQ(campaignJson(again, resumed), expected);
    std::remove(cfg.journalPath.c_str());
}

/**
 * Resume under a config that differs from the journal's in one keyed
 * field: no line may be adopted, and every trial re-runs. `change`
 * turns the journaling config into the resuming one.
 */
template <typename Change>
void
expectResumeRerunsEveryTrial(const std::string &name, Change change)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = name;
    cfg.workloads = {"m88ksim"};
    cfg.trialsPerWorkload = 2;
    cfg.journalPath = "test_fault_campaign." + name + ".jsonl";
    runFaultCampaign(cfg);
    ASSERT_EQ(journalLines(cfg.journalPath).size(), 2u);

    FaultCampaignConfig other = cfg;
    change(other);
    other.resume = true;
    const FaultCampaignResult resumed = runFaultCampaign(other);
    ASSERT_EQ(resumed.trials.size(), 2u);
    for (const TrialRecord &t : resumed.trials)
        EXPECT_FALSE(t.metrics.model.empty())
            << "adopted a line written under another config";
    std::remove(cfg.journalPath.c_str());
}

TEST(FaultCampaign, ResumeRerunsTrialsJournaledAtAnotherSize)
{
    expectResumeRerunsEveryTrial("resume_size", [](FaultCampaignConfig &c) {
        c.size = WorkloadSize::Small;
    });
}

TEST(FaultCampaign, ResumeRerunsTrialsJournaledInTheOtherMode)
{
    expectResumeRerunsEveryTrial("resume_mode", [](FaultCampaignConfig &c) {
        c.reliableMode = !c.reliableMode;
    });
}

/** A different value of the same type. */
template <typename T>
void
bump(T &f)
{
    if constexpr (std::is_same_v<T, std::string>)
        f += "x";
    else if constexpr (std::is_same_v<T, bool>)
        f = !f;
    else if constexpr (std::is_enum_v<T>)
        f = T(unsigned(f) == 0 ? 1 : 0);
    else
        ++f;
}

/**
 * Change the k-th scalar a field list visits (descending into
 * DetectParams) and return its name; "" once k is past the end.
 * `walk(visit)` runs the list.
 */
template <typename Walk>
std::string
changeNth(Walk walk, size_t k)
{
    size_t n = 0;
    std::string changed;
    const auto leaf = [&](const char *name, auto &f) {
        if (n++ == k) {
            changed = name;
            bump(f);
        }
    };
    walk([&](const char *name, auto &f) {
        using T = std::remove_reference_t<decltype(f)>;
        if constexpr (std::is_same_v<T, DetectParams>)
            DetectParams::fields(f, leaf);
        else
            leaf(name, f);
    });
    return changed;
}

/**
 * Each keyed config field, and the spec's workload, trial index, cycle
 * cap and plans, must reach the trial key on its own: two trials that
 * differ in any one of them never share a cache entry or a journal
 * line.
 */
TEST(FaultCampaign, TrialKeyCoversEveryKeyedField)
{
    FaultCampaignConfig cfg;
    cfg.workloads = {"compress"};
    cfg.trialsPerWorkload = 1;
    const std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
    ASSERT_EQ(specs.size(), 1u);
    ASSERT_FALSE(specs[0].plans.empty());
    const Hash128 base = campaignTrialKey(cfg, specs[0], 0);
    EXPECT_EQ(base, campaignTrialKey(cfg, specs[0], 0));

    size_t fields = 0;
    for (;; ++fields) {
        FaultCampaignConfig alt = cfg;
        const std::string name = changeNth(
            [&](auto &&v) { FaultCampaignConfig::keyFields(alt, v); },
            fields);
        if (name.empty())
            break;
        EXPECT_FALSE(base == campaignTrialKey(alt, specs[0], 0))
            << name << " does not reach the key";
    }
    EXPECT_EQ(fields, 8u); // 7 config scalars + the detect backend

    for (size_t k = 0;; ++k) {
        CampaignTrialSpec alt = specs[0];
        const std::string name = changeNth(
            [&](auto &&v) { FaultPlan::fields(alt.plans[0], v); }, k);
        if (name.empty())
            break;
        EXPECT_FALSE(base == campaignTrialKey(cfg, alt, 0))
            << "plan " << name << " does not reach the key";
    }
    CampaignTrialSpec spec = specs[0];
    spec.plans.push_back(spec.plans[0]);
    EXPECT_FALSE(base == campaignTrialKey(cfg, spec, 0)) << "plan count";
    spec = specs[0];
    spec.workload = "li";
    EXPECT_FALSE(base == campaignTrialKey(cfg, spec, 0)) << "workload";
    spec = specs[0];
    ++spec.maxCycles;
    EXPECT_FALSE(base == campaignTrialKey(cfg, spec, 0)) << "cycle cap";
    EXPECT_FALSE(base == campaignTrialKey(cfg, specs[0], 1)) << "trial";
}

TEST(FaultCampaign, ReportEscapesTheCampaignName)
{
    FaultCampaignConfig cfg;
    cfg.name = "a\"b";
    const std::string json = campaignJson(cfg, FaultCampaignResult{});
    EXPECT_NE(json.find("\"campaign\": \"a\\\"b\","), std::string::npos)
        << json;
}

/**
 * Builds that had A-stream policies journaled a "policy" field on
 * every line. Such a line never re-renders under this build, so
 * resume re-runs its trial even when its key is this build's own.
 */
TEST(FaultCampaign, ResumeRerunsLinesCarryingAPolicyField)
{
    FaultCampaignConfig cfg = smallConfig();
    cfg.name = "resume_policy";
    cfg.workloads = {"m88ksim"};
    cfg.trialsPerWorkload = 2;
    cfg.journalPath = "test_fault_campaign.policy_field.jsonl";

    const FaultCampaignResult fresh = runFaultCampaign(cfg);
    const std::string expected = campaignJson(cfg, fresh);
    const std::vector<std::string> lines = journalLines(cfg.journalPath);
    ASSERT_EQ(lines.size(), 2u);

    // The field where the older builds wrote it, and the outcome set
    // to `crashed`: if resume adopted a line, the bogus outcome would
    // land in the report.
    {
        std::ofstream out(cfg.journalPath, std::ios::trunc);
        for (const std::string &line : lines) {
            std::string old = withField(line, "outcome", "\"crashed\"");
            const size_t at = old.find(",\"error\":");
            ASSERT_NE(at, std::string::npos) << old;
            old.insert(at, ",\"policy\":\"ir\"");
            out << old << '\n';
        }
    }

    FaultCampaignConfig again = cfg;
    again.resume = true;
    const FaultCampaignResult resumed = runFaultCampaign(again);
    EXPECT_EQ(campaignJson(again, resumed), expected);
    for (const TrialRecord &t : resumed.trials)
        EXPECT_FALSE(t.metrics.model.empty()) << "adopted an old line";
    std::remove(cfg.journalPath.c_str());
}

} // namespace
} // namespace slip
