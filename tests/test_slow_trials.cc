/**
 * Host-time regression guard: a trial with a large but bounded amount
 * of simulated work must finish in bounded host time.
 *
 * Campaign seed 606 with two trials a program plans a vortex trial
 * (trial 14) whose faults hang the slipstream machine until the
 * watchdog gives up at 1,344,870 cycles. While IR-detector scope
 * eviction scanned the whole memory rename table once per trace, this
 * one trial ran for more than 14 minutes; ctest's timeout on this
 * binary fails it if that cost comes back.
 */

#include <gtest/gtest.h>

#include "harness/fault_campaign.hh"

namespace slip
{
namespace
{

TEST(SlowTrials, Seed606VortexHangsWithinBudget)
{
    FaultCampaignConfig cfg;
    cfg.name = "slip_campaign";
    cfg.size = WorkloadSize::Test;
    cfg.trialsPerWorkload = 2;
    cfg.seed = 606;
    cfg.params.aPolicy = AStreamPolicyParams{};
    cfg.params.detect = DetectParams{};
    cfg.isolation = IsolationMode::None;

    const std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
    constexpr size_t kTrial = 14;
    ASSERT_GT(specs.size(), kTrial);
    ASSERT_EQ(specs[kTrial].workload, "vortex");

    JobOutcome outcome;
    CancelToken cancel;
    outcome.metrics = runCampaignTrial(cfg, specs[kTrial], kTrial, cancel);
    const TrialRecord record =
        recordCampaignTrial(cfg, specs[kTrial], kTrial, outcome);

    EXPECT_EQ(
        campaignTrialLine(cfg, kTrial, record),
        "{\"campaign\":\"slip_campaign\",\"seed\":606,\"trial\":14,"
        "\"key\":\"b66431269f3efd5455f94c46544d3900\","
        "\"workload\":\"vortex\",\"outcome\":\"hung\",\"planned\":2,"
        "\"injected\":2,\"detected\":1,\"degraded\":0,"
        "\"latency_samples\":1,\"latency_total\":62,\"latency_max\":62,"
        "\"lat_hist\":\"ir_predictor=6:1\",\"cycles\":1344870,"
        "\"backend\":\"slipstream\",\"checked\":2384849,"
        "\"det_mismatch\":24,\"det_external\":0,\"det_replays\":0,"
        "\"det_replayed\":0,\"det_overhead\":0,\"policy\":\"ir\","
        "\"error\":\"\"}");
}

} // namespace
} // namespace slip
