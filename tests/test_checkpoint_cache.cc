/**
 * Campaign trials share their fault-free prefix
 * (harness/checkpoint_cache.hh): a warm trial reports byte for byte
 * what its cold run reports, and the trials that must run cold do.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "harness/checkpoint_cache.hh"
#include "harness/fault_campaign.hh"
#include "obs/trace_session.hh"

namespace slip
{
namespace
{

CheckpointCache &
cache()
{
    return CheckpointCache::global();
}

/** The trial's journal line, from its metrics. */
std::string
lineOf(const FaultCampaignConfig &cfg, const CampaignTrialSpec &spec,
       size_t trial, const RunMetrics &m)
{
    JobOutcome o;
    o.metrics = m;
    return campaignTrialLine(cfg, trial,
                             recordCampaignTrial(cfg, spec, trial, o));
}

/** The trial run cold, straight through runSlipstream(). */
RunMetrics
coldRun(const FaultCampaignConfig &cfg, const CampaignTrialSpec &spec)
{
    const auto *e = static_cast<const ProgramCache::Entry *>(spec.entry);
    SlipstreamParams params = cfg.params;
    if (cfg.reliableMode)
        params.irPred.enabled = false;
    return runSlipstream(e->program, params, e->golden, spec.plans,
                         spec.maxCycles);
}

/** The trial through the campaign's job body (warm when it can be). */
RunMetrics
trialRun(const FaultCampaignConfig &cfg, const CampaignTrialSpec &spec,
         size_t trial)
{
    CancelToken cancel;
    return runCampaignTrial(cfg, spec, trial, cancel);
}

FaultCampaignConfig
config(uint64_t seed, unsigned trials, std::vector<std::string> workloads)
{
    FaultCampaignConfig cfg;
    cfg.name = "checkpoint_cache";
    cfg.size = WorkloadSize::Test;
    cfg.seed = seed;
    cfg.trialsPerWorkload = trials;
    cfg.workloads = std::move(workloads);
    cfg.journalPath = "test_checkpoint_cache.journal.jsonl";
    cfg.journalFsync = 0;
    return cfg;
}

TEST(CheckpointCache, EveryPlannedTrialOfSeedsOneToThreeMatchesItsColdRun)
{
    cache().clear();
    const CheckpointCache::Counts before = cache().counts();
    size_t trials = 0, workloads = 0;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        const FaultCampaignConfig cfg = config(seed, 16, {});
        const std::vector<CampaignTrialSpec> specs =
            planCampaignTrials(cfg);
        workloads = specs.size() / 16;

        SimJobRunner cold(4), warm(4);
        for (size_t i = 0; i < specs.size(); ++i) {
            const CampaignTrialSpec &spec = specs[i];
            cold.add([&cfg, &spec] { return coldRun(cfg, spec); });
            // Seed 1 runs each workload's first two trials first, in
            // order: the first notes c*, the second captures there.
            if (seed == 1 && i % 16 < 2)
                trialRun(cfg, spec, i);
            else
                warm.add([&cfg, &spec, i] {
                    return trialRun(cfg, spec, i);
                });
        }
        const std::vector<RunMetrics> want = cold.run();
        const std::vector<RunMetrics> got = warm.run();
        for (size_t i = 0, k = 0; i < specs.size(); ++i) {
            if (seed == 1 && i % 16 < 2)
                continue;
            EXPECT_EQ(lineOf(cfg, specs[i], i, got[k++]),
                      lineOf(cfg, specs[i], i, want[i]))
                << "seed " << seed << " trial " << i;
        }
        trials += specs.size();
    }
    // Every trial but those first two per workload restores, all of
    // seeds 2 and 3 included: the key is the program and the params,
    // not the seed.
    const CheckpointCache::Counts after = cache().counts();
    EXPECT_EQ(after.built - before.built, workloads);
    EXPECT_EQ(after.warmStarts - before.warmStarts,
              trials - 2 * workloads);
    EXPECT_GT(after.cyclesRestored, before.cyclesRestored);
    EXPECT_GT(after.bytesHeld, 0u);
}

/** Warm the (li, default params) pair: its next trial restores. */
void
warmLi(const FaultCampaignConfig &cfg,
       const std::vector<CampaignTrialSpec> &specs)
{
    trialRun(cfg, specs[0], 0); // notes c*
    trialRun(cfg, specs[1], 1); // captures
    const uint64_t warm = cache().counts().warmStarts;
    trialRun(cfg, specs[2], 2);
    ASSERT_EQ(cache().counts().warmStarts, warm + 1);
}

TEST(CheckpointCache, APairsFirstTrialsRunColdThenItsTrialsRestore)
{
    cache().clear();
    const FaultCampaignConfig cfg = config(7, 4, {"li"});
    const std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
    const CheckpointCache::Counts c0 = cache().counts();
    trialRun(cfg, specs[0], 0);
    const CheckpointCache::Counts c1 = cache().counts();
    EXPECT_EQ(c1.built, c0.built);
    EXPECT_EQ(c1.warmStarts, c0.warmStarts);
    EXPECT_EQ(c1.bytesHeld, 0u);
    trialRun(cfg, specs[1], 1);
    const CheckpointCache::Counts c2 = cache().counts();
    EXPECT_EQ(c2.built, c1.built + 1);
    EXPECT_EQ(c2.warmStarts, c1.warmStarts);
    EXPECT_GT(c2.bytesHeld, 0u);
    trialRun(cfg, specs[2], 2);
    const CheckpointCache::Counts c3 = cache().counts();
    EXPECT_EQ(c3.warmStarts, c2.warmStarts + 1);
    EXPECT_GT(c3.cyclesRestored, c2.cyclesRestored);
}

TEST(CheckpointCache, ATrialWithAPlanBelowTheWindowRunsCold)
{
    cache().clear();
    const FaultCampaignConfig cfg = config(7, 4, {"li"});
    std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
    warmLi(cfg, specs);
    const auto *e = static_cast<const ProgramCache::Entry *>(specs[3].entry);
    specs[3].plans.push_back(
        {FaultTarget::RPipeline, faultWindowStart(e->goldenInstCount) - 1,
         3});
    const uint64_t warm = cache().counts().warmStarts;
    const RunMetrics m = trialRun(cfg, specs[3], 3);
    EXPECT_EQ(cache().counts().warmStarts, warm);
    EXPECT_EQ(lineOf(cfg, specs[3], 3, m),
              lineOf(cfg, specs[3], 3, coldRun(cfg, specs[3])));
}

TEST(CheckpointCache, ATracedTrialRunsCold)
{
    cache().clear();
    const FaultCampaignConfig cfg = config(7, 4, {"li"});
    const std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
    warmLi(cfg, specs);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("checkpoint_cache_trace_" + std::to_string(::getpid()));
    const obs::TraceConfig saved = obs::TraceSession::global().config();
    obs::TraceConfig traced = saved;
    traced.mask = uint32_t(obs::Category::Recovery);
    traced.dir = dir.string();
    obs::TraceSession::global().configure(traced);
    const uint64_t warm = cache().counts().warmStarts;
    const RunMetrics m = trialRun(cfg, specs[3], 3);
    obs::TraceSession::global().configure(saved);
    std::filesystem::remove_all(dir);

    EXPECT_EQ(cache().counts().warmStarts, warm);
    EXPECT_EQ(lineOf(cfg, specs[3], 3, m),
              lineOf(cfg, specs[3], 3, coldRun(cfg, specs[3])));
}

TEST(CheckpointCache, CampaignsDifferingInOneParamNeverShareACheckpoint)
{
    cache().clear();
    const FaultCampaignConfig cfg = config(7, 4, {"li"});
    const std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
    warmLi(cfg, specs);

    FaultCampaignConfig other = cfg;
    other.params.delayBuffer.dataCapacity = 128;
    const std::vector<CampaignTrialSpec> otherSpecs =
        planCampaignTrials(other);
    const CheckpointCache::Counts before = cache().counts();
    const RunMetrics m = trialRun(other, otherSpecs[0], 0);
    EXPECT_EQ(cache().counts().warmStarts, before.warmStarts);
    EXPECT_EQ(cache().counts().built, before.built);
    EXPECT_EQ(lineOf(other, otherSpecs[0], 0, m),
              lineOf(other, otherSpecs[0], 0,
                     coldRun(other, otherSpecs[0])));
}

TEST(CheckpointCache, ATrialWhoseCapStopsBeforeTheCheckpointRunsCold)
{
    cache().clear();
    const FaultCampaignConfig cfg = config(7, 4, {"li"});
    std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
    warmLi(cfg, specs);
    specs[3].maxCycles = 1000; // far short of li's fault window
    const uint64_t warm = cache().counts().warmStarts;
    const RunMetrics m = trialRun(cfg, specs[3], 3);
    EXPECT_EQ(cache().counts().warmStarts, warm);
    EXPECT_TRUE(m.hung);
    EXPECT_EQ(lineOf(cfg, specs[3], 3, m),
              lineOf(cfg, specs[3], 3, coldRun(cfg, specs[3])));
}

} // namespace
} // namespace slip
