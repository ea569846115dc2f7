/**
 * The campaign report's one field list: campaignJson() renders it and
 * readFaultReport() parses it. Pins the report bytes, and checks that
 * a report read back renders the same bytes and the same table.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/fault_report.hh"

namespace slip
{
namespace
{

/** A tally with every field non-zero, scaled by `s`. */
CampaignTally
handTally(uint64_t s, bool crashed)
{
    CampaignTally t;
    t.trials = 3 * s;
    t.faultsPlanned = 6 * s;
    t.faultsInjected = 5 * s;
    t.faultsDetected = 4 * s;
    for (unsigned o = 0; o < kNumTrialOutcomes; ++o)
        t.byOutcome[o] = o + s;
    t.degradedRuns = 2 * s;
    t.latencySamples = 3 * s + 4;
    t.latencyTotal = 997 * s;
    t.latencyMax = 400 + s;
    t.cyclesTotal = 123456789 * s;
    t.detectChecked = 98765 * s;
    t.detectMismatches = 11 * s;
    t.detectExternal = 3 * s;
    t.detectOverhead = 4321 * s;
    t.overheadHist.sample(5 * s);
    t.overheadHist.sample(4000 * s);
    t.latencyByTarget["r_pipeline"].sample(12 * s);
    t.latencyByTarget["memory_cell"].sample(300);
    t.latencyByTarget["memory_cell"].sample(301 * s);
    if (crashed) {
        t.crashBySignal["SIGSEGV"] = s;
        t.crashBySignal["exit_3"] = 1;
    }
    return t;
}

/**
 * A campaign whose name needs escaping, with two workloads (one
 * without worker crashes) and every config echo off its default.
 */
FaultCampaignConfig
handConfig()
{
    FaultCampaignConfig cfg;
    cfg.name = "quote\"and\nnewline";
    cfg.workloads = {"compress", "li"};
    cfg.size = WorkloadSize::Small;
    cfg.seed = 18446744073709551615ull;
    cfg.trialsPerWorkload = 3;
    cfg.minFaultsPerTrial = 1;
    cfg.maxFaultsPerTrial = 2;
    cfg.reliableMode = true;
    cfg.targets = {FaultTarget::RPipeline, FaultTarget::MemoryCell};
    cfg.params.detect.kind = DetectBackendKind::Replay;
    cfg.params.aPolicy.kind = AStreamPolicyKind::Reliability;
    return cfg;
}

FaultCampaignResult
handResult()
{
    FaultCampaignResult r;
    r.perWorkload.push_back({"compress", handTally(1, false)});
    r.perWorkload.push_back({"li", handTally(2, true)});
    r.total = handTally(3, true);
    return r;
}

/** What the hand-written renderer the field list replaced wrote. */
const char *const kPinnedReport = R"json({
  "report_version": 1,
  "campaign": "quote\"and\nnewline",
  "mode": "reliable",
  "detect_backend": "replay",
  "a_stream_policy": "reliability",
  "size": "small",
  "seed": 18446744073709551615,
  "trials_per_workload": 3,
  "faults_per_trial": [1, 2],
  "targets": ["r_pipeline", "memory_cell"],
  "trials": 9,
  "faults": {"planned": 18, "injected": 15, "detected": 12},
  "outcomes": {"detected_recovered": 3, "hung_recovered": 4, "silent_benign": 5, "silent_corrupt": 6, "detected_but_corrupt": 7, "no_victim": 8, "hung": 9, "timed_out": 10, "crashed": 11, "detected_unrepaired": 12},
  "degraded_runs": 6,
  "cycles_total": 370370367,
  "detect": {"checked": 296295, "mismatches": 33, "external": 9, "overhead_cycles": 12963},
  "detect_overhead_histogram": {"8-15": 1, "8192-16383": 1},
  "worker_crashes": {"SIGSEGV": 3, "exit_3": 1},
  "detection_latency_cycles": {"samples": 13, "avg": 230.077, "max": 403},
  "detection_latency_histogram": {"memory_cell": {"256-511": 1, "512-1023": 1}, "r_pipeline": {"32-63": 1}},
  "workloads": [
    {
      "name": "compress",
      "trials": 3,
      "faults": {"planned": 6, "injected": 5, "detected": 4},
      "outcomes": {"detected_recovered": 1, "hung_recovered": 2, "silent_benign": 3, "silent_corrupt": 4, "detected_but_corrupt": 5, "no_victim": 6, "hung": 7, "timed_out": 8, "crashed": 9, "detected_unrepaired": 10},
      "degraded_runs": 2,
      "cycles_total": 123456789,
      "detect": {"checked": 98765, "mismatches": 11, "external": 3, "overhead_cycles": 4321},
      "detect_overhead_histogram": {"4-7": 1, "2048-4095": 1},
      "detection_latency_cycles": {"samples": 7, "avg": 142.429, "max": 401},
      "detection_latency_histogram": {"memory_cell": {"256-511": 2}, "r_pipeline": {"8-15": 1}}
    },
    {
      "name": "li",
      "trials": 6,
      "faults": {"planned": 12, "injected": 10, "detected": 8},
      "outcomes": {"detected_recovered": 2, "hung_recovered": 3, "silent_benign": 4, "silent_corrupt": 5, "detected_but_corrupt": 6, "no_victim": 7, "hung": 8, "timed_out": 9, "crashed": 10, "detected_unrepaired": 11},
      "degraded_runs": 4,
      "cycles_total": 246913578,
      "detect": {"checked": 197530, "mismatches": 22, "external": 6, "overhead_cycles": 8642},
      "detect_overhead_histogram": {"8-15": 1, "4096-8191": 1},
      "worker_crashes": {"SIGSEGV": 2, "exit_3": 1},
      "detection_latency_cycles": {"samples": 10, "avg": 199.4, "max": 402},
      "detection_latency_histogram": {"memory_cell": {"256-511": 1, "512-1023": 1}, "r_pipeline": {"16-31": 1}}
    }
  ]
})json";

TEST(FaultReport, BytesMatchThePinnedReport)
{
    EXPECT_EQ(campaignJson(handConfig(), handResult()), kPinnedReport);
}

TEST(FaultReport, ReadBackRendersTheSameBytes)
{
    std::vector<FaultReport> reports;
    std::string err;
    ASSERT_TRUE(readFaultReport(faultReportText({kPinnedReport, kPinnedReport}),
                                reports, err))
        << err;
    ASSERT_EQ(reports.size(), 2u);
    for (const FaultReport &r : reports)
        EXPECT_EQ(campaignJson(r), kPinnedReport);

    const FaultReport &r = reports[0];
    EXPECT_EQ(r.header.campaign, "quote\"and\nnewline");
    EXPECT_EQ(r.header.seed, 18446744073709551615ull);
    ASSERT_EQ(r.workloads.size(), 2u);
    EXPECT_EQ(r.workloads[1].name, "li");
    // The report carries the mean, so the total comes back rounded from
    // it: exact while the six digits hold it.
    EXPECT_EQ(r.workloads[0].tally.latencyTotal, 997u);
    EXPECT_EQ(r.total.latencyTotal, 2991u);
    EXPECT_TRUE(r.workloads[0].tally.crashBySignal.empty());
    EXPECT_EQ(r.total.crashBySignal.at("exit_3"), 1u);
    EXPECT_EQ(r.total.latencyByTarget.at("memory_cell").count(), 2u);
}

/**
 * A campaign named after a report key still reads back as one campaign
 * with its own row: the reader looks fields up by key, not by
 * searching the text.
 */
TEST(FaultReport, CampaignNamedWorkloadsRendersItsRow)
{
    FaultCampaignConfig cfg;
    cfg.name = "workloads";
    FaultCampaignResult result;
    result.perWorkload.push_back({"compress", handTally(1, false)});
    result.total = handTally(1, false);
    const std::string object = campaignJson(cfg, result);

    std::vector<FaultReport> reports;
    std::string err;
    ASSERT_TRUE(readFaultReport(faultReportText({object}), reports, err))
        << err;
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].header.campaign, "workloads");
    EXPECT_EQ(campaignJson(reports[0]), object);
    const std::string table = renderShootoutTable(reports);
    EXPECT_NE(table.find("\nslipstream "), std::string::npos) << table;
}

} // namespace
} // namespace slip
