/**
 * slip_campaign: run one fault-injection campaign with explicit
 * control over the isolation layer — the operational front end for
 * the crash-isolated trial harness (and the binary CI's
 * crash-containment smoke job drives).
 *
 *   slip_campaign --isolation fork --trials 8
 *   slip_campaign --isolation fork --workloads compress,li --resume
 *   slip_campaign --isolation fork --demo-crash 3 --demo-exit 5
 *
 * The --demo-* flags make specific trial indices misbehave inside the
 * worker (SIGSEGV / _exit(3) / spin forever) without touching
 * simulator code: under `--isolation fork` the supervisor must
 * contain each one as a classified `crashed`/`timed_out` journal line
 * while every other trial completes. Under `--isolation none` a demo
 * crash takes down this process — which is exactly the failure mode
 * the fork sandbox exists to remove.
 *
 * Exit codes: 0 = campaign completed and no non-demo trial was lost,
 * 1 = a trial that should have been healthy crashed or timed out,
 * 2 = usage error, 130 = interrupted (SIGINT), 143 = terminated
 * (SIGTERM, what supervisors and CI runners send) — either way,
 * completed trials are already journaled and fsync'd, so rerunning
 * with --resume finishes the campaign without repeating them.
 */

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "harness/fault_report.hh"
#include "harness/table.hh"
#include "harness/worker_pool.hh"

namespace
{

using namespace slip;

/**
 * Graceful SIGINT/SIGTERM: every completed trial is already journaled
 * (one write() per line, fsync'd by default), so there is nothing to
 * flush — the job is to die deliberately: tell the operator how to
 * resume, use the shell-convention exit status (128 + signal: 130 for
 * SIGINT, 143 for the SIGTERM a supervisor or CI runner sends), and
 * never from a forked worker's inherited handler (the supervisor
 * triages worker deaths itself, so workers exit silently).
 * Async-signal-safe only: write() + _exit().
 */
pid_t g_mainPid = 0;

extern "C" void
onTermSignal(int sig)
{
    if (getpid() == g_mainPid) {
        static const char msg[] =
            "\nslip_campaign: interrupted — completed trials are "
            "journaled;\nrerun with --resume to finish without "
            "repeating them\n";
        const ssize_t n =
            ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
        (void)n;
    }
    _exit(128 + sig);
}

void
usage(std::ostream &os)
{
    os << "usage: slip_campaign [options]\n"
          "  --isolation M    trial sandboxing: none | fork\n"
          "                   (default $SLIPSTREAM_ISOLATION, else "
          "none)\n"
          "  --detect B       detection backend: slipstream | replay "
          "| checker\n"
          "                   (default $SLIPSTREAM_DETECT, else "
          "slipstream)\n"
          "  --policy P       A-stream policy: ir | reliability\n"
          "                   (default $SLIPSTREAM_ASTREAM_POLICY, "
          "else ir)\n"
          "  --workers N      worker processes/threads\n"
          "                   (default $SLIPSTREAM_JOBS)\n"
          "  --trials N       trials per workload      (default 8)\n"
          "  --seed N         campaign seed            (default "
          "20260806)\n"
          "  --workloads A,B  workload subset          (default all "
          "eight)\n"
          "  --size S         workload size: test | small | default\n"
          "  --name NAME      campaign name            (default "
          "slip_campaign)\n"
          "  --resume         skip trials already journaled\n"
          "  --journal PATH   trial journal            (default "
          "$SLIPSTREAM_FAULT_JOURNAL)\n"
          "  --report PATH    write the JSON report here (default: "
          "none)\n"
          "  --quarantine DIR poisoned-trial bundles   (default "
          "results/quarantine)\n"
          "  --demo-crash K   trial K raise(SIGSEGV)s in the worker "
          "(repeatable)\n"
          "  --demo-exit K    trial K _exit(3)s in the worker "
          "(repeatable)\n"
          "  --demo-spin K    trial K spins until the deadline "
          "(repeatable;\n"
          "                   set SLIPSTREAM_TRIAL_TIMEOUT_MS)\n"
          "  -h, --help\n";
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

void
printCampaign(const FaultCampaignResult &result)
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
              << " detected\n";
    if (!t.crashBySignal.empty()) {
        std::cout << "worker deaths:";
        for (const auto &[how, n] : t.crashBySignal)
            std::cout << " " << how << "=" << n;
        std::cout << "\n";
    }
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    FaultCampaignConfig cfg;
    cfg.name = "slip_campaign";
    cfg.trialsPerWorkload = 8;

    std::string reportPath;
    std::set<uint64_t> demoCrash, demoExit, demoSpin;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "slip_campaign: " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        uint64_t n = 0;
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (arg == "--isolation") {
            const std::string v = value("--isolation");
            if (!parseIsolationMode(v, cfg.isolation)) {
                std::cerr << "slip_campaign: bad --isolation '" << v
                          << "' (want none|fork)\n";
                return 2;
            }
        } else if (arg == "--detect") {
            const std::string v = value("--detect");
            if (!parseDetectBackend(v, cfg.params.detect.kind)) {
                std::cerr << "slip_campaign: bad --detect '" << v
                          << "' (want slipstream|replay|checker)\n";
                return 2;
            }
        } else if (arg == "--policy") {
            const std::string v = value("--policy");
            if (!parseAStreamPolicy(v, cfg.params.aPolicy.kind)) {
                std::cerr << "slip_campaign: bad --policy '" << v
                          << "' (want ir|reliability)\n";
                return 2;
            }
        } else if (arg == "--workers") {
            if (!parseUnsigned(value("--workers"), cfg.workers) ||
                cfg.workers == 0) {
                std::cerr << "slip_campaign: bad --workers\n";
                return 2;
            }
        } else if (arg == "--trials") {
            if (!parseUnsigned(value("--trials"), cfg.trialsPerWorkload) ||
                cfg.trialsPerWorkload == 0) {
                std::cerr << "slip_campaign: bad --trials\n";
                return 2;
            }
        } else if (arg == "--seed") {
            if (!parseUnsigned(value("--seed"), cfg.seed)) {
                std::cerr << "slip_campaign: bad --seed\n";
                return 2;
            }
        } else if (arg == "--workloads") {
            cfg.workloads = splitCsv(value("--workloads"));
            if (cfg.workloads.empty()) {
                std::cerr << "slip_campaign: bad --workloads\n";
                return 2;
            }
        } else if (arg == "--size") {
            const std::string v = value("--size");
            if (v == "test") {
                cfg.size = WorkloadSize::Test;
            } else if (v == "small") {
                cfg.size = WorkloadSize::Small;
            } else if (v == "default" || v == "full") {
                cfg.size = WorkloadSize::Default;
            } else {
                std::cerr << "slip_campaign: bad --size '" << v
                          << "' (want test|small|default)\n";
                return 2;
            }
        } else if (arg == "--name") {
            cfg.name = value("--name");
        } else if (arg == "--resume") {
            cfg.resume = true;
        } else if (arg == "--journal") {
            cfg.journalPath = value("--journal");
        } else if (arg == "--report") {
            reportPath = value("--report");
        } else if (arg == "--quarantine") {
            cfg.quarantineDir = value("--quarantine");
        } else if (arg == "--demo-crash") {
            if (!parseUnsigned(value("--demo-crash"), n)) {
                std::cerr << "slip_campaign: bad --demo-crash\n";
                return 2;
            }
            demoCrash.insert(n);
        } else if (arg == "--demo-exit") {
            if (!parseUnsigned(value("--demo-exit"), n)) {
                std::cerr << "slip_campaign: bad --demo-exit\n";
                return 2;
            }
            demoExit.insert(n);
        } else if (arg == "--demo-spin") {
            if (!parseUnsigned(value("--demo-spin"), n)) {
                std::cerr << "slip_campaign: bad --demo-spin\n";
                return 2;
            }
            demoSpin.insert(n);
        } else {
            std::cerr << "slip_campaign: unknown option '" << arg
                      << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    if (!demoCrash.empty() || !demoExit.empty() || !demoSpin.empty()) {
        if (cfg.isolation == IsolationMode::None) {
            std::cerr << "slip_campaign: note: --demo-* under "
                         "--isolation none will kill this process "
                         "(that's the unsandboxed failure mode)\n";
        }
        cfg.trialHook = [demoCrash, demoExit, demoSpin](size_t trial) {
            if (demoCrash.count(trial))
                raise(SIGSEGV);
            if (demoExit.count(trial))
                _exit(3);
            if (demoSpin.count(trial)) {
                volatile uint64_t sink = 0;
                for (;;)
                    sink = sink + 1;
            }
        };
    }

    std::cout << "=== slip_campaign: " << cfg.name << " ===\n"
              << "isolation: " << isolationModeName(cfg.isolation)
              << ", detect: "
              << detectBackendName(cfg.params.detect.kind)
              << ", policy: "
              << aStreamPolicyName(cfg.params.aPolicy.kind)
              << ", trials/workload: " << cfg.trialsPerWorkload
              << ", seed: " << cfg.seed << "\n\n";
    setLogQuiet(false);

    g_mainPid = getpid();
    struct sigaction sa = {};
    sa.sa_handler = onTermSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    FaultCampaignResult result;
    try {
        result = runFaultCampaign(cfg);
    } catch (const std::exception &e) {
        std::cerr << "slip_campaign: " << e.what() << "\n";
        return 2;
    }
    printCampaign(result);

    if (!reportPath.empty())
        writeFaultReport({campaignJson(cfg, result)}, reportPath);

    // Containment check: only trials we deliberately broke may end as
    // crashed/timed_out. Anything else lost means the isolation layer
    // leaked collateral damage.
    const auto isDemo = [&](size_t i) {
        return demoCrash.count(i) || demoExit.count(i) ||
               demoSpin.count(i);
    };
    uint64_t lostHealthy = 0;
    uint64_t healthy = 0;
    for (size_t i = 0; i < result.trials.size(); ++i) {
        if (isDemo(i))
            continue;
        ++healthy;
        const TrialOutcome o = result.trials[i].outcome;
        if (o == TrialOutcome::Crashed || o == TrialOutcome::TimedOut) {
            std::cerr << "slip_campaign: healthy trial " << i
                      << " lost (" << trialOutcomeName(o) << ": "
                      << result.trials[i].error << ")\n";
            ++lostHealthy;
        }
    }
    if (lostHealthy) {
        std::cerr << "slip_campaign: " << lostHealthy << " of "
                  << healthy << " healthy trial(s) lost\n";
        return 1;
    }
    std::cout << "slip_campaign: all " << healthy
              << " healthy trials completed\n";
    return 0;
}
