/**
 * @file
 * The fault-campaign report and the detection-backend shootout table
 * drawn from it. A report is a JSON array with one object per campaign
 * (config echo, grand tally, per-workload tallies). One field list
 * describes an object: campaignJson() renders it and readFaultReport()
 * parses it, so a report read back renders the same bytes, and
 * bench/detect_shootout and tools/detect_report print the same table.
 */

#ifndef SLIPSTREAM_HARNESS_FAULT_REPORT_HH
#define SLIPSTREAM_HARNESS_FAULT_REPORT_HH

#include <array>
#include <string>
#include <vector>

#include "harness/fault_campaign.hh"

namespace slip
{

/** Stamped into every object; any other revision, or none, is refused. */
inline constexpr unsigned kFaultReportVersion = 1;

/** The config echo that opens each campaign object. */
struct FaultReportHeader
{
    unsigned version = kFaultReportVersion;
    std::string campaign;
    std::string mode; // "slipstream" or "reliable"
    std::string detectBackend;
    std::string aStreamPolicy;
    std::string size;
    uint64_t seed = 0;
    unsigned trialsPerWorkload = 0;
    std::array<unsigned, 2> faultsPerTrial{}; // [min, max]
    std::vector<std::string> targets;

    /** The first key; readFaultReport() checks it before any other. */
    static constexpr const char *kVersionKey = "report_version";

    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v(kVersionKey, self.version);
        v("campaign", self.campaign);
        v("mode", self.mode);
        v("detect_backend", self.detectBackend);
        v("a_stream_policy", self.aStreamPolicy);
        v("size", self.size);
        v("seed", self.seed);
        v("trials_per_workload", self.trialsPerWorkload);
        v("faults_per_trial", self.faultsPerTrial);
        v("targets", self.targets);
    }
};

/** One campaign object. No wall-clock, so the bytes are stable. */
struct FaultReport
{
    FaultReportHeader header;
    CampaignTally total;
    std::vector<WorkloadTally> workloads;

    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        FaultReportHeader::fields(self.header, v);
        CampaignTally::reportFields(self.total, v);
        v("workloads", self.workloads);
    }
};

/** What the report says about one finished campaign. */
FaultReport faultReport(const FaultCampaignConfig &cfg,
                        const FaultCampaignResult &result);

/** One campaign object as JSON text. */
std::string campaignJson(const FaultReport &report);
std::string campaignJson(const FaultCampaignConfig &cfg,
                         const FaultCampaignResult &result);

/** Campaign objects as the report file's JSON array. */
std::string faultReportText(const std::vector<std::string> &campaignObjects);

/**
 * Write faultReportText() to `path`, or (when empty) to
 * $SLIPSTREAM_FAULT_JSON, else results/fault_campaign.json, through
 * writeFileAtomically(). Never throws; failures warn.
 */
void writeFaultReport(const std::vector<std::string> &campaignObjects,
                      const std::string &path = "");

/**
 * Parse report text into its campaigns, in file order, checking every
 * object's report_version before reading any other field. False puts a
 * one-line diagnosis in `err`: empty, not a JSON array, not valid JSON
 * (a cut-off file says "truncated"), an unversioned or foreign-version
 * object, or "missing field F in campaign C".
 */
bool readFaultReport(const std::string &text, std::vector<FaultReport> &out,
                     std::string &err);

/**
 * The shootout table none of the source papers prints: coverage,
 * detection latency and modeled overhead, one row per report (its
 * detection backend).
 */
std::string renderShootoutTable(const std::vector<FaultReport> &reports);

/** The rendered table, through writeFileAtomically(). Never throws. */
void writeShootoutTable(const std::vector<FaultReport> &reports,
                        const std::string &path);

} // namespace slip

#endif // SLIPSTREAM_HARNESS_FAULT_REPORT_HH
