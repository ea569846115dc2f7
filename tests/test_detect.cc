/**
 * Detection-backend shootout machinery: strict backend selection,
 * per-backend campaign determinism (jobs × isolation × resume), the
 * coverage differences that motivate the shootout (replay closes the
 * memory-cell ECC hole and scenario #2), and the shootout table's
 * live/offline round trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "detect/detect_params.hh"
#include "harness/fault_report.hh"
#include "slipstream/fault_injector.hh"

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
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

constexpr DetectBackendKind kAllKinds[] = {
    DetectBackendKind::Slipstream,
    DetectBackendKind::Replay,
};

FaultCampaignConfig
backendConfig(DetectBackendKind kind, const std::string &tag)
{
    FaultCampaignConfig cfg;
    cfg.name = "detect_test";
    cfg.workloads = {"compress"};
    cfg.trialsPerWorkload = 4;
    cfg.params.detect.kind = kind;
    cfg.journalPath = "test_detect." + tag + ".jsonl";
    cfg.journalFsync = 0;
    return cfg;
}

TEST(DetectBackend, NamesAndParsing)
{
    EXPECT_STREQ(detectBackendName(DetectBackendKind::Slipstream),
                 "slipstream");
    EXPECT_STREQ(detectBackendName(DetectBackendKind::Replay),
                 "replay");

    for (DetectBackendKind kind : kAllKinds) {
        DetectBackendKind parsed;
        ASSERT_TRUE(
            parseDetectBackend(detectBackendName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    DetectBackendKind dummy;
    EXPECT_FALSE(parseDetectBackend("parity", dummy));
    EXPECT_FALSE(parseDetectBackend("checker", dummy)); // an older build's
    EXPECT_FALSE(parseDetectBackend("", dummy));
}

TEST(DetectEnv, UnsetUsesFallback)
{
    EnvGuard g("SLIPSTREAM_DETECT", nullptr);
    EXPECT_EQ(detectBackendFromEnv(), DetectBackendKind::Slipstream);
    EXPECT_EQ(detectBackendFromEnv(DetectBackendKind::Replay),
              DetectBackendKind::Replay);
}

TEST(DetectEnv, ValidValuesOverride)
{
    for (DetectBackendKind kind : kAllKinds) {
        EnvGuard g("SLIPSTREAM_DETECT", detectBackendName(kind));
        EXPECT_EQ(detectBackendFromEnv(), kind);
    }
}

TEST(DetectEnv, GarbageThrows)
{
    // Strict mode-knob contract: a typo'd backend would silently run
    // the wrong shootout lane, so an unknown value throws rather than
    // falling back. So does a backend an older build offered.
    for (const char *value : {"parity", "checker"}) {
        SCOPED_TRACE(value);
        EnvGuard g("SLIPSTREAM_DETECT", value);
        setLogQuiet(true);
        EXPECT_THROW(detectBackendFromEnv(), FatalError);
        EXPECT_THROW((void)FaultCampaignConfig(), FatalError);
        setLogQuiet(false);
    }
}

TEST(DetectCampaign, ReportAndJournalCarryTheBackend)
{
    for (DetectBackendKind kind : kAllKinds) {
        const char *name = detectBackendName(kind);
        FaultCampaignConfig cfg =
            backendConfig(kind, std::string("carry_") + name);
        cfg.trialsPerWorkload = 2;
        const FaultCampaignResult result = runFaultCampaign(cfg);
        const std::string json = campaignJson(cfg, result);

        EXPECT_NE(json.find(std::string("\"detect_backend\": \"") +
                            name + "\""),
                  std::string::npos)
            << name;
        for (const TrialRecord &t : result.trials) {
            EXPECT_EQ(t.detectBackend, name);
            // Every backend validates the retired stream somehow.
            EXPECT_GT(t.detectChecked, 0u) << name;
        }
        for (const std::string &line : readLines(cfg.journalPath))
            EXPECT_NE(line.find(std::string("\"backend\":\"") + name +
                                "\""),
                      std::string::npos)
                << line;
        std::remove(cfg.journalPath.c_str());
    }
}

/**
 * The acceptance property, per backend: byte-identical reports and
 * journals for any SLIPSTREAM_JOBS under both isolation modes.
 * Replay's stats ride RunMetrics through the fork-isolation wire
 * codec, so this is also the codec's coverage for the detect block.
 */
TEST(DetectCampaign, DeterministicAcrossJobsAndIsolation)
{
    const char *prior = std::getenv("SLIPSTREAM_JOBS");
    const std::string saved = prior ? prior : "";

    for (DetectBackendKind kind : kAllKinds) {
        const char *name = detectBackendName(kind);
        std::string baseline;
        std::string baselineJournal;
        for (IsolationMode mode :
             {IsolationMode::None, IsolationMode::Fork}) {
            for (const char *jobs : {"1", "3"}) {
                SCOPED_TRACE(std::string(name) + "/" +
                             isolationModeName(mode) + "/jobs=" +
                             jobs);
                setenv("SLIPSTREAM_JOBS", jobs, 1);
                FaultCampaignConfig cfg = backendConfig(
                    kind, std::string("det_") + name + "_" +
                              isolationModeName(mode) + "_" + jobs);
                cfg.isolation = mode;
                const std::string report =
                    campaignJson(cfg, runFaultCampaign(cfg));
                std::string journal;
                for (const std::string &line :
                     readLines(cfg.journalPath))
                    journal += line + "\n";
                std::remove(cfg.journalPath.c_str());
                if (baseline.empty()) {
                    baseline = report;
                    baselineJournal = journal;
                } else {
                    EXPECT_EQ(report, baseline);
                    EXPECT_EQ(journal, baselineJournal);
                }
            }
        }
        EXPECT_FALSE(baselineJournal.empty());
    }

    if (prior)
        setenv("SLIPSTREAM_JOBS", saved.c_str(), 1);
    else
        unsetenv("SLIPSTREAM_JOBS");
}

/**
 * Why the shootout exists, part 1: main memory sits outside the
 * sphere of replication (the paper leaves it to ECC), so the native
 * backend never sees a flipped cell. Replay re-executes from a clean
 * shadow memory and catches the corrupt value at its first use.
 */
TEST(DetectCampaign, ReplayClosesTheMemoryEccHole)
{
    CampaignTally tally[kNumDetectBackends];
    for (DetectBackendKind kind : kAllKinds) {
        FaultCampaignConfig cfg = backendConfig(
            kind, std::string("ecc_") + detectBackendName(kind));
        cfg.workloads = {"compress", "li"};
        cfg.trialsPerWorkload = 6;
        cfg.targets = {FaultTarget::MemoryCell};
        tally[size_t(kind)] = runFaultCampaign(cfg).total;
        std::remove(cfg.journalPath.c_str());
    }

    const CampaignTally &native =
        tally[size_t(DetectBackendKind::Slipstream)];
    const CampaignTally &replay =
        tally[size_t(DetectBackendKind::Replay)];

    // Identical plans land identical faults (the backend observes;
    // it never perturbs the simulated machine).
    ASSERT_GT(native.faultsInjected, 0u);
    EXPECT_EQ(replay.faultsInjected, native.faultsInjected);

    // The native mechanism is blind here; replay is not.
    EXPECT_EQ(native.detectExternal, 0u);
    EXPECT_EQ(native.faultsDetected, 0u);
    EXPECT_GT(replay.detectExternal, 0u);
    EXPECT_GT(replay.faultsDetected, native.faultsDetected);

    // Detection without repair: corrupt-output trials that replay
    // caught move from silent_corrupt to detected_unrepaired, never
    // into the soundness tripwire.
    EXPECT_LE(replay.outcomes(TrialOutcome::SilentCorrupt),
              native.outcomes(TrialOutcome::SilentCorrupt));
    EXPECT_EQ(replay.outcomes(TrialOutcome::DetectedButCorrupt), 0u);
    EXPECT_EQ(native.outcomes(TrialOutcome::DetectedUnrepaired), 0u);

    // Replay's modeled cost is visible: windows flushed, instructions
    // re-executed, overhead cycles accumulated.
    EXPECT_GT(replay.detectOverhead, 0u);
    EXPECT_GT(replay.overheadHist.count(), 0u);
}

/**
 * Why the shootout exists, part 2: a non-redundant R-pipeline fault
 * (paper scenario #2) corrupts authoritative state that the delay-
 * buffer comparison never revisits. Replay re-executes the retired
 * stream independently, so it sees the corruption at its first
 * downstream use.
 */
TEST(DetectCampaign, ExternalBackendsSeeScenarioTwo)
{
    CampaignTally tally[kNumDetectBackends];
    for (DetectBackendKind kind : kAllKinds) {
        FaultCampaignConfig cfg = backendConfig(
            kind, std::string("sc2_") + detectBackendName(kind));
        // Workloads where a non-redundant R-pipeline corruption is
        // actually consumed downstream (dead corruption is invisible
        // to any value-based detector, external ones included).
        cfg.workloads = {"m88ksim", "vortex"};
        cfg.trialsPerWorkload = 12;
        cfg.targets = {FaultTarget::RPipeline};
        tally[size_t(kind)] = runFaultCampaign(cfg).total;
        std::remove(cfg.journalPath.c_str());
    }

    const CampaignTally &native =
        tally[size_t(DetectBackendKind::Slipstream)];
    const CampaignTally &replay =
        tally[size_t(DetectBackendKind::Replay)];

    EXPECT_EQ(native.detectExternal, 0u);
    EXPECT_GT(replay.detectExternal, 0u);
    EXPECT_GE(replay.faultsDetected, native.faultsDetected);
}

/** Kill/resume restores per-backend tallies and histograms exactly. */
TEST(DetectResume, ByteIdenticalPerBackend)
{
    for (DetectBackendKind kind : kAllKinds) {
        const char *name = detectBackendName(kind);
        SCOPED_TRACE(name);
        FaultCampaignConfig cfg =
            backendConfig(kind, std::string("resume_") + name);
        const std::string expected =
            campaignJson(cfg, runFaultCampaign(cfg));
        const std::vector<std::string> lines =
            readLines(cfg.journalPath);
        ASSERT_EQ(lines.size(), 4u);

        // Kill after two journaled trials, plus a torn third line.
        {
            std::ofstream out(cfg.journalPath, std::ios::trunc);
            out << lines[0] << '\n' << lines[1] << '\n';
            out << lines[2].substr(0, lines[2].size() / 2);
        }
        FaultCampaignConfig again = cfg;
        again.resume = true;
        EXPECT_EQ(campaignJson(again, runFaultCampaign(again)),
                  expected);
        std::remove(cfg.journalPath.c_str());
    }
}

/**
 * A journal written under one backend must not satisfy a campaign
 * running another: the trial aggregates (coverage, mismatches,
 * overhead) are backend-specific, so adopting them would fabricate
 * the shootout's comparison. Resume re-runs such trials instead.
 */
TEST(DetectResume, ForeignBackendJournalIsNotAdopted)
{
    FaultCampaignConfig replayCfg =
        backendConfig(DetectBackendKind::Replay, "foreign_replay");
    runFaultCampaign(replayCfg);
    const std::vector<std::string> replayLines =
        readLines(replayCfg.journalPath);
    ASSERT_EQ(replayLines.size(), 4u);

    FaultCampaignConfig nativeCfg =
        backendConfig(DetectBackendKind::Slipstream, "foreign_native");
    const std::string expected =
        campaignJson(nativeCfg, runFaultCampaign(nativeCfg));

    // Seed a slipstream resume with the replay journal: every line
    // matches on campaign/seed/trial/workload but not on backend.
    FaultCampaignConfig poisoned =
        backendConfig(DetectBackendKind::Slipstream, "foreign_poisoned");
    {
        std::ofstream out(poisoned.journalPath, std::ios::trunc);
        for (const std::string &line : replayLines)
            out << line << '\n';
    }
    poisoned.resume = true;
    setLogQuiet(true); // the skipped-lines warning is expected
    const std::string got =
        campaignJson(poisoned, runFaultCampaign(poisoned));
    setLogQuiet(false);
    EXPECT_EQ(got, expected);

    std::remove(replayCfg.journalPath.c_str());
    std::remove(nativeCfg.journalPath.c_str());
    std::remove(poisoned.journalPath.c_str());
}

/**
 * The table renders live and round-trips through the JSON report:
 * each report reads back to the same values, re-renders to the same
 * bytes, and gives the same table.
 */
TEST(Shootout, TableRoundTripsThroughTheReport)
{
    std::vector<FaultReport> live;
    std::vector<std::string> jsons;
    for (DetectBackendKind kind : kAllKinds) {
        const char *name = detectBackendName(kind);
        FaultCampaignConfig cfg =
            backendConfig(kind, std::string("table_") + name);
        cfg.trialsPerWorkload = 3;
        const FaultCampaignResult result = runFaultCampaign(cfg);
        live.push_back(faultReport(cfg, result));
        jsons.push_back(campaignJson(live.back()));
        std::remove(cfg.journalPath.c_str());
    }

    const std::string table = renderShootoutTable(live);
    for (DetectBackendKind kind : kAllKinds)
        EXPECT_NE(table.find(detectBackendName(kind)),
                  std::string::npos);
    EXPECT_NE(table.find("coverage"), std::string::npos);
    EXPECT_NE(table.find("overhead"), std::string::npos);

    const std::string path = "test_detect_report.json";
    writeFaultReport(jsons, path);
    std::stringstream buf;
    buf << std::ifstream(path).rdbuf();
    std::remove(path.c_str());
    std::vector<FaultReport> parsed;
    std::string err;
    ASSERT_TRUE(readFaultReport(buf.str(), parsed, err)) << err;

    ASSERT_EQ(parsed.size(), live.size());
    for (size_t i = 0; i < live.size(); ++i) {
        const CampaignTally &got = parsed[i].total;
        const CampaignTally &want = live[i].total;
        SCOPED_TRACE(live[i].header.detectBackend);
        EXPECT_EQ(parsed[i].header.detectBackend,
                  live[i].header.detectBackend);
        EXPECT_EQ(got.trials, want.trials);
        EXPECT_EQ(got.faultsInjected, want.faultsInjected);
        EXPECT_EQ(got.faultsDetected, want.faultsDetected);
        EXPECT_EQ(got.outcomes(TrialOutcome::SilentCorrupt),
                  want.outcomes(TrialOutcome::SilentCorrupt));
        EXPECT_EQ(got.latencyMax, want.latencyMax);
        EXPECT_EQ(got.detectOverhead, want.detectOverhead);
        EXPECT_EQ(got.cyclesTotal, want.cyclesTotal);
        EXPECT_EQ(got.faultsDetected * want.faultsInjected,
                  want.faultsDetected * got.faultsInjected); // coverage
        EXPECT_EQ(campaignJson(parsed[i]), jsons[i]);
    }
    EXPECT_EQ(renderShootoutTable(parsed), table);

    // The table writer is atomic and failure-tolerant like the JSON
    // report writer.
    const std::string tablePath = "test_detect_table.txt";
    writeShootoutTable(live, tablePath);
    std::stringstream tbuf;
    tbuf << std::ifstream(tablePath).rdbuf();
    EXPECT_EQ(tbuf.str(), table);
    EXPECT_FALSE(
        std::ifstream(tablePath + ".tmp." + std::to_string(getpid())).good());
    std::remove(tablePath.c_str());
    // Under a regular file no directory can be made: the write fails
    // with a warning, not an exception.
    const std::string blocker = "test_detect_table_blocker";
    std::ofstream(blocker) << "not a directory\n";
    setLogQuiet(true);
    EXPECT_NO_THROW(writeShootoutTable(live, blocker + "/sub/table.txt"));
    setLogQuiet(false);
    std::remove(blocker.c_str());
}

} // namespace
} // namespace slip
