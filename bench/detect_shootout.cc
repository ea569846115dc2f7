/**
 * Detection-backend shootout: the same multi-target fault campaign
 * (all 8 injector targets, all benchmarks) run twice, once per
 * detection architecture —
 *
 *   slipstream  the paper's native delay-buffer comparison
 *   replay      RepTFD-style windowed functional re-execution
 *
 * — and condensed into a two-way coverage / detection-latency /
 * overhead table none of the source papers prints. Campaigns run on
 * the deterministic FaultCampaign runner: identical trial plans per
 * backend (same seed), byte-identical reports for any SLIPSTREAM_JOBS
 * and isolation mode, resumable with --resume from the trial journal
 * (results/detect_shootout.journal.jsonl).
 *
 * Outputs: results/detect_shootout.json (machine-readable report) and
 * results/detect_shootout_table.txt (the rendered table), plus the
 * table on stdout. tools/detect_report re-renders the table from the
 * JSON offline.
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"
#include "harness/fault_report.hh"

namespace
{

using namespace slip;

constexpr const char *kJournal =
    "results/detect_shootout.journal.jsonl";
constexpr const char *kReport = "results/detect_shootout.json";
constexpr const char *kTable = "results/detect_shootout_table.txt";

int
run(int argc, char **argv)
{
    using namespace slip;

    bool resume = false;
    IsolationMode isolation = isolationFromEnv();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string isoPrefix = "--isolation=";
        if (arg == "--resume") {
            resume = true;
        } else if (arg.rfind(isoPrefix, 0) == 0) {
            if (!parseIsolationMode(arg.substr(isoPrefix.size()),
                                    isolation)) {
                std::cerr << "bad " << arg << " (want none|fork)\n";
                return 2;
            }
        } else if (!bench::applyTraceArg(arg)) {
            std::cerr << "usage: " << argv[0]
                      << " [--resume] [--isolation=none|fork]"
                         " [--trace[=categories]]\n";
            return 2;
        }
    }
    bench::banner("Detection-backend shootout (slipstream vs. replay)",
                  "same fault campaign, two detection architectures");
    if (resume)
        std::cout << "(resuming from the trial journal)\n\n";
    if (isolation == IsolationMode::Fork)
        std::cout << "(fork isolation: each trial sandboxed in a "
                     "worker process)\n\n";

    unsigned trials = 32;
    switch (bench::benchSize()) {
      case WorkloadSize::Test:
        trials = 6;
        break;
      case WorkloadSize::Small:
        trials = 32;
        break;
      case WorkloadSize::Default:
        trials = 128;
        break;
    }

    bench::Timing timing("detect_shootout", defaultJobs());
    std::vector<std::string> report;

    constexpr DetectBackendKind kBackends[] = {
        DetectBackendKind::Slipstream,
        DetectBackendKind::Replay,
    };
    for (const DetectBackendKind kind : kBackends) {
        const std::string backend = detectBackendName(kind);
        std::cout << "---- " << backend << " backend ----\n";
        FaultCampaignConfig cfg;
        cfg.name = "detect_" + backend;
        cfg.trialsPerWorkload = trials;
        cfg.resume = resume;
        cfg.isolation = isolation;
        cfg.journalPath = kJournal;
        // Identical trial plans per backend (same seed and targets);
        // only the observer differs.
        cfg.params.detect.kind = kind;
        const FaultCampaignResult result = runFaultCampaign(cfg);
        report.push_back(campaignJson(cfg, result));

        const CampaignTally &t = result.total;
        std::cout << t.trials << " trials, " << t.faultsInjected
                  << " faults injected, " << t.faultsDetected
                  << " detected; external detections "
                  << t.detectExternal << ", modeled overhead "
                  << t.detectOverhead << " cycles\n\n";
        for (const TrialRecord &trial : result.trials)
            timing.addCycles(trial.cycles);
    }

    // The table comes from the report text, exactly as
    // tools/detect_report re-renders it offline.
    writeFaultReport(report, kReport);
    std::vector<FaultReport> reports;
    std::string why;
    if (!readFaultReport(faultReportText(report), reports, why)) {
        std::cerr << "detect_shootout: report does not read back: " << why
                  << "\n";
        return 1;
    }
    writeShootoutTable(reports, kTable);

    std::cout << renderShootoutTable(reports) << "\n"
              << "report: " << kReport << "\ntable:  " << kTable
              << "\nper-trial journal: " << kJournal
              << " (rerun with --resume after a kill)\n\n"
              << "expected shape: the native backend misses the "
                 "silently-retiring\ntargets (non-redundant R-pipeline"
                 " hits, memory cells) that replay\ncatches; replay "
                 "pays a modeled overhead the native comparison\ngets "
                 "for free.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
