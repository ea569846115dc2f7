/**
 * Quantifies the paper's §3 transient-fault analysis (Figure 5's three
 * scenarios give no numeric table; this harness produces one) with
 * multi-target, multi-fault campaigns.
 *
 * Three campaigns run, all through the deterministic FaultCampaign
 * runner (results are byte-identical for any SLIPSTREAM_JOBS):
 *
 *  1. slipstream mode — the full target mix, including MemoryCell
 *     (outside the sphere of replication: quantifies the ECC hole)
 *     and AStreamStall (watchdog territory).
 *  2. reliable / AR-SMT mode — full redundancy; expected shape is
 *     zero silent corruption.
 *  3. forced degradation — a dense burst of A-side faults against a
 *     permissive degrade window, demonstrating the graceful fallback
 *     to R-only execution with output intact.
 *
 * Every trial is classified (see fault_campaign.hh) and the machine-
 * readable report lands in results/fault_campaign.json (override with
 * $SLIPSTREAM_FAULT_JSON), next to bench_perf.json.
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"
#include "harness/fault_report.hh"

namespace
{

using namespace slip;

/** One campaign's per-workload classification table. */
void
printCampaign(const FaultCampaignResult &result, bench::Timing &timing)
{
    Table table({"benchmark", "trials", "faults", "det+rec", "hung+rec",
                 "silent-benign", "silent-corrupt", "det-but-corrupt",
                 "det-unrepaired", "no-victim", "hung", "timed-out",
                 "crashed", "degraded"});
    for (const auto &[name, t] : result.perWorkload) {
        table.addRow(
            {name, Table::count(t.trials), Table::count(t.faultsInjected),
             Table::count(t.outcomes(TrialOutcome::DetectedRecovered)),
             Table::count(t.outcomes(TrialOutcome::HungRecovered)),
             Table::count(t.outcomes(TrialOutcome::SilentBenign)),
             Table::count(t.outcomes(TrialOutcome::SilentCorrupt)),
             Table::count(t.outcomes(TrialOutcome::DetectedButCorrupt)),
             Table::count(t.outcomes(TrialOutcome::DetectedUnrepaired)),
             Table::count(t.outcomes(TrialOutcome::NoVictim)),
             Table::count(t.outcomes(TrialOutcome::Hung)),
             Table::count(t.outcomes(TrialOutcome::TimedOut)),
             Table::count(t.outcomes(TrialOutcome::Crashed)),
             Table::count(t.degradedRuns)});
    }
    table.print(std::cout);

    const CampaignTally &t = result.total;
    std::cout << "totals: " << t.faultsPlanned << " faults planned, "
              << t.faultsInjected << " injected, " << t.faultsDetected
              << " detected; detection latency avg "
              << t.avgLatency() << " / max " << t.latencyMax
              << " cycles over " << t.latencySamples << " samples\n\n";

    for (const TrialRecord &trial : result.trials)
        timing.addCycles(trial.cycles);
}

int
run(int argc, char **argv)
{
    // --resume: skip trials already journaled by an interrupted
    // invocation; the report comes out byte-identical to an
    // uninterrupted run's. --isolation fork (or
    // SLIPSTREAM_ISOLATION=fork) sandboxes each trial in a worker
    // process; the reports are byte-identical either way.
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
    // Every campaign starts from these defaults. Reading the mode
    // knobs here stops a bad one before the banner and the timing
    // record.
    const FaultCampaignConfig defaults;
    bench::banner("Fault coverage (paper §3, Figure 5 scenarios)",
                  "multi-target bit-flip campaigns per benchmark");
    if (resume)
        std::cout << "(resuming from the trial journal)\n\n";
    if (isolation == IsolationMode::Fork)
        std::cout << "(fork isolation: each trial sandboxed in a "
                     "worker process)\n\n";

    // Per-workload trial counts: at `default`, 256 trials x ~2 faults
    // each lands well past 500 mixed-target faults per workload.
    unsigned trials = 64;
    switch (bench::benchSize()) {
      case WorkloadSize::Test:
        trials = 12;
        break;
      case WorkloadSize::Small:
        trials = 64;
        break;
      case WorkloadSize::Default:
        trials = 256;
        break;
    }

    bench::Timing timing("fault_coverage", defaultJobs());
    std::vector<std::string> report;

    // ---- campaign 1: slipstream mode, full target mix ----
    std::cout << "---- slipstream mode (partial redundancy, all "
                 "targets) ----\n";
    FaultCampaignConfig slip = defaults;
    slip.name = "slipstream_mixed_targets";
    slip.trialsPerWorkload = trials;
    slip.resume = resume;
    slip.isolation = isolation;
    const FaultCampaignResult slipResult = runFaultCampaign(slip);
    printCampaign(slipResult, timing);
    report.push_back(campaignJson(slip, slipResult));

    // ---- campaign 2: reliable (AR-SMT) mode ----
    std::cout << "---- reliable mode (AR-SMT, no removal) ----\n";
    FaultCampaignConfig reliable = defaults;
    reliable.name = "reliable_mode";
    reliable.trialsPerWorkload = trials;
    reliable.reliableMode = true;
    reliable.resume = resume;
    reliable.isolation = isolation;
    const FaultCampaignResult reliableResult =
        runFaultCampaign(reliable);
    printCampaign(reliableResult, timing);
    report.push_back(campaignJson(reliable, reliableResult));
    if (reliableResult.total.outcomes(TrialOutcome::SilentCorrupt) ||
        reliableResult.total.outcomes(
            TrialOutcome::DetectedButCorrupt)) {
        std::cout << "WARNING: reliable mode produced corrupted "
                     "output -- redundancy hole!\n\n";
    }

    // ---- campaign 3: forced degradation to R-only ----
    std::cout << "---- forced degradation (dense A-side burst, "
                 "permissive degrade window) ----\n";
    FaultCampaignConfig burst = defaults;
    burst.name = "forced_degradation";
    burst.workloads = {"m88ksim"};
    burst.trialsPerWorkload = 4;
    burst.minFaultsPerTrial = 12;
    burst.maxFaultsPerTrial = 12;
    burst.targets = {FaultTarget::AStream};
    burst.resume = resume;
    burst.isolation = isolation;
    burst.params.degrade.windowCycles = 100'000;
    burst.params.degrade.recoveryThreshold = 6;
    const FaultCampaignResult burstResult = runFaultCampaign(burst);
    printCampaign(burstResult, timing);
    report.push_back(campaignJson(burst, burstResult));

    writeFaultReport(report);

    std::cout
        << "per-trial journal: results/fault_campaign.journal.jsonl\n"
           "(kill this bench at any point and rerun with --resume to\n"
           "finish without repeating completed trials)\n\n"
        << "expected shape: reliable mode has zero silent corruption;\n"
           "slipstream mode's silent cases track the removed\n"
           "(non-redundant) fraction plus the MemoryCell (ECC) hole;\n"
           "the burst campaign degrades every run to R-only with\n"
           "output intact.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
