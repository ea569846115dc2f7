/**
 * Report reading behind tools/detect_report: a missing, truncated,
 * unversioned, foreign-schema-version or incomplete report must be
 * refused with a one-line diagnosis instead of being misparsed into a
 * silently wrong table.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/fault_report.hh"

namespace slip
{
namespace
{

/** readFaultReport's diagnosis of `text`; "" when it reads. */
std::string
diagnose(const std::string &text)
{
    std::vector<FaultReport> reports;
    std::string err;
    const bool read = readFaultReport(text, reports, err);
    EXPECT_EQ(read, err.empty()) << err;
    return err;
}

/** One fully rendered campaign object named `name`. */
std::string
renderedCampaign(const std::string &name)
{
    FaultCampaignConfig cfg;
    cfg.name = name;
    return campaignJson(cfg, FaultCampaignResult{});
}

TEST(ShootoutReport, EmptyReportIsRefused)
{
    EXPECT_NE(diagnose("").find("empty"), std::string::npos);
    EXPECT_NE(diagnose("  \n\t ").find("empty"), std::string::npos);
}

TEST(ShootoutReport, ForeignFileIsRefused)
{
    EXPECT_NE(diagnose("<html>not json</html>").find("JSON array"),
              std::string::npos);
}

TEST(ShootoutReport, TruncatedReportIsRefused)
{
    EXPECT_NE(diagnose("[\n{\"campaign\": \"x\", \"trials\": 8")
                  .find("truncated"),
              std::string::npos);
    const std::string full = faultReportText({renderedCampaign("x")});
    EXPECT_NE(diagnose(full.substr(0, full.size() / 2)).find("truncated"),
              std::string::npos);
}

TEST(ShootoutReport, ReportWithoutVersionIsRefused)
{
    // An unversioned object has no known layout.
    const std::string err =
        diagnose("[\n{\"campaign\": \"old\", \"trials\": 8}\n]\n");
    EXPECT_NE(err.find("report_version"), std::string::npos) << err;
    EXPECT_NE(err.find("regenerate"), std::string::npos) << err;
}

TEST(ShootoutReport, CurrentVersionPasses)
{
    const std::string object = renderedCampaign("x");
    std::vector<FaultReport> reports;
    std::string err;
    ASSERT_TRUE(readFaultReport(faultReportText({object}), reports, err))
        << err;
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].header.version, kFaultReportVersion);
    EXPECT_EQ(campaignJson(reports[0]), object);
}

TEST(ShootoutReport, ForeignVersionIsRefusedNamingBoth)
{
    // Version 1 reports carried an a_stream_policy field.
    for (const char *version : {"999", "1"}) {
        const std::string err =
            diagnose(std::string("[\n{\"report_version\": ") + version +
                     ",\n\"campaign\": \"x\"}\n]\n");
        EXPECT_NE(err.find(std::string("schema version ") + version +
                           " "),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find(std::to_string(kFaultReportVersion)),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("regenerate"), std::string::npos) << err;
    }
}

TEST(ShootoutReport, MixedVersionsRefusedOnFirstForeignObject)
{
    const std::string report =
        "[\n{\"report_version\": " +
        std::to_string(kFaultReportVersion) +
        ", \"campaign\": \"a\"},\n"
        "{\"report_version\": 0, \"campaign\": \"b\"}\n]\n";
    EXPECT_NE(diagnose(report).find("version 0"), std::string::npos);
}

TEST(ShootoutReport, MissingFieldIsNamedWithItsCampaign)
{
    std::string object = renderedCampaign("lacks_seed");
    const size_t at = object.find("  \"seed\"");
    ASSERT_NE(at, std::string::npos);
    object.erase(at, object.find('\n', at) + 1 - at);
    EXPECT_EQ(diagnose(faultReportText({object})),
              "missing field seed in campaign lacks_seed");
}

} // namespace
} // namespace slip
