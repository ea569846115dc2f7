/**
 * @file
 * Fault-injection campaign runner (paper §3, made quantitative).
 *
 * A campaign draws a reproducible batch of multi-fault trial plans —
 * mixed targets, random dynamic positions and bits — and fans the
 * trials out on the parallel SimJobRunner. Each trial is one full
 * slipstream simulation, cycle-capped so a wedged run ends in a
 * classified `hung` outcome instead of hanging the harness, and is
 * classified against the golden output:
 *
 *   detected+recovered   every landed fault detected, output correct
 *   hung+recovered       the watchdog forced the recovery that saved
 *                        the run (A-stream derailed, no comparison
 *                        could fire); output correct
 *   silent-benign        a fault landed undetected, output correct
 *   silent-corrupt       output corrupted with at least one landed
 *                        fault undetected — the undetected fault's
 *                        doing (paper scenario #2)
 *   detected-but-corrupt output corrupted although every landed
 *                        fault was detected (model-soundness
 *                        tripwire: should stay zero)
 *   no-victim            no planned fault found a physical victim
 *   hung                 the run did not complete
 *   timed-out            the supervisor's wall-clock deadline reaped
 *                        the trial (SLIPSTREAM_TRIAL_TIMEOUT_MS)
 *   crashed              the trial's job threw; the exception is
 *                        classified and recorded, siblings unaffected
 *
 * Plans are drawn serially from one Rng before any job is submitted
 * and SimJobRunner returns results in submission order, so campaign
 * results are byte-identical for any SLIPSTREAM_JOBS.
 *
 * Campaigns are crash-safe: every completed trial is appended (and
 * flushed) as one JSONL line to a journal
 * (results/fault_campaign.journal.jsonl by default), and a campaign
 * started in resume mode skips already-journaled trials — the final
 * report is byte-identical wherever a previous run died. A journal
 * line carries its trial's key (campaignTrialKey), and resume adopts
 * a line only if this configuration would have written exactly those
 * bytes.
 */

#ifndef SLIPSTREAM_HARNESS_FAULT_CAMPAIGN_HH
#define SLIPSTREAM_HARNESS_FAULT_CAMPAIGN_HH

#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/stats.hh"
#include "harness/experiment.hh"
#include "harness/sim_runner.hh"
#include "harness/worker_pool.hh"
#include "workloads/workloads.hh"

namespace slip
{

/** How one fault-injection trial ended. */
enum class TrialOutcome : uint8_t
{
    DetectedRecovered,
    HungRecovered,
    SilentBenign,
    SilentCorrupt,
    DetectedButCorrupt,
    NoVictim,
    Hung,
    TimedOut,
    Crashed,

    /**
     * Output corrupted, every landed fault detected, and at least
     * one detection came from an external backend (replay) — which
     * observes but does not repair. The corruption was *caught*,
     * just not healed: the machine knows it must not commit the
     * result. Distinct from DetectedButCorrupt, where the
     * repairing mechanism itself claimed the detection and a corrupt
     * output is a model-soundness anomaly.
     */
    DetectedUnrepaired,
};

inline constexpr unsigned kNumTrialOutcomes = 10;

/** "detected_recovered", "hung_recovered", ... (report keys). */
const char *trialOutcomeName(TrialOutcome outcome);

/** Inverse of trialOutcomeName (journal parsing); false = unknown. */
bool trialOutcomeFromName(const std::string &name, TrialOutcome &out);

/** Classify one finished trial from its metrics. */
TrialOutcome classifyTrial(const RunMetrics &m);

/**
 * Target mix when the config leaves `targets` empty. Reliable
 * (AR-SMT) campaigns exclude MemoryCell — main memory sits outside
 * the sphere of replication (the paper leaves it to ECC), so
 * including it would break the mode's zero-silent-corruption
 * guarantee by construction — and IRPredictor, whose SRAM is unused
 * when removal is off (never a victim).
 */
std::vector<FaultTarget> defaultCampaignTargets(bool reliableMode);

/** One campaign's shape. */
struct FaultCampaignConfig
{
    std::string name = "fault_campaign";

    /** Workload names; empty = all eight, paper order. */
    std::vector<std::string> workloads;
    WorkloadSize size = WorkloadSize::Test;

    unsigned trialsPerWorkload = 32;
    unsigned minFaultsPerTrial = 1;
    unsigned maxFaultsPerTrial = 3;
    uint64_t seed = 20260806;

    /** AR-SMT mode: removal disabled, full redundancy. */
    bool reliableMode = false;

    /** Empty = defaultCampaignTargets(reliableMode). */
    std::vector<FaultTarget> targets;

    /** Processor configuration shared by every trial. */
    SlipstreamParams params;

    /**
     * Per-trial cycle cap: goldenInstCount * cycleCapPerInst plus
     * full watchdog allowance. Generous for any healthy run (IPC
     * never drops below ~0.5 on these workloads).
     */
    Cycle cycleCapPerInst = 10;

    /**
     * Trial journal path. Empty = $SLIPSTREAM_FAULT_JOURNAL, else
     * results/fault_campaign.journal.jsonl. Every completed trial is
     * appended and flushed as one JSONL line, so a killed campaign
     * loses at most the trials still in flight.
     */
    std::string journalPath;

    /**
     * Skip trials already journaled instead of re-running them: a
     * line is adopted only if this config would have written it byte
     * for byte, trial key included. The final report is
     * byte-identical to an uninterrupted run's.
     */
    bool resume = false;

    /**
     * How trials are sandboxed. The constructor reads
     * $SLIPSTREAM_ISOLATION (default none). Under fork isolation a
     * trial that SIGSEGVs the simulator becomes a journaled `crashed`
     * outcome (with signal + last-known phase) instead of killing the
     * campaign; after WorkerPoolOptions::poisonThreshold crashes the
     * trial is quarantined as a repro bundle under `quarantineDir`.
     */
    IsolationMode isolation = IsolationMode::None;

    /** Trial workers; 0 = defaultJobs() ($SLIPSTREAM_JOBS). */
    unsigned workers = 0;

    /** Where poisoned trials' repro bundles land. */
    std::string quarantineDir = "results/quarantine";

    /**
     * fsync the journal after every appended trial: -1 consults
     * $SLIPSTREAM_JOURNAL_FSYNC (default on), 0/1 force. Durability
     * against power loss, at ~ms per trial — campaigns default on;
     * the test suite turns it off via ctest's environment.
     */
    int journalFsync = -1;

    /**
     * Test/CI hook: runs inside the trial job (in the worker process
     * under fork isolation) before the simulation, with the trial
     * index. Lets crash-containment tests make specific trials
     * raise(SIGSEGV) / _exit(3) / spin without touching simulator
     * code.
     */
    std::function<void(size_t trial)> trialHook;

    FaultCampaignConfig();

    /**
     * The fields that shape a trial's result, in key order:
     * campaignTrialKey() hashes them with the planned spec, so two
     * configs that differ in any one of them never share a result.
     * Isolation, workers, journal and hooks are absent on purpose:
     * they cannot change a result's bytes.
     */
    template <typename Self, typename Visit>
    static void
    keyFields(Self &self, Visit &&v)
    {
        v("name", self.name);
        v("size", self.size);
        v("seed", self.seed);
        v("reliable mode", self.reliableMode);
        v("cycle cap per instruction", self.cycleCapPerInst);
        v("detect", self.params.detect);
        v("watchdog stall cycles", self.params.watchdog.stallCycles);
        v("watchdog trips", self.params.watchdog.maxTrips);
    }
};

/**
 * One trial's full story. The aggregate fields (fault counts,
 * latency sums, cycles) are what the tallies and the JSON report
 * consume; they are journaled verbatim, so a trial reconstructed on
 * resume contributes exactly what the live run did. `metrics` is
 * populated for trials executed in this process only (empty for
 * resumed ones).
 */
struct TrialRecord
{
    /** campaignTrialKey() of the trial (journaled as "key"). */
    Hash128 key;

    std::string workload;
    std::vector<FaultPlan> plans;
    TrialOutcome outcome = TrialOutcome::NoVictim;
    RunMetrics metrics;

    /** Crashed trials: the classified exception text. */
    std::string error;

    // Worker-death triage (fork isolation only; journaled so resumed
    // campaigns keep their crash histogram).
    int crashSignal = 0;    // terminating signal, 0 if it _exit()ed
    int crashExit = 0;      // exit status when crashSignal == 0
    std::string crashPhase; // trialPhaseName() of last-known progress

    // Journaled aggregates (the report's inputs).
    uint64_t faultsPlanned = 0;
    uint64_t faultsInjected = 0;
    uint64_t faultsDetected = 0;
    bool degraded = false;
    uint64_t latencySamples = 0;
    Cycle latencyTotal = 0;
    Cycle latencyMax = 0;
    Cycle cycles = 0;

    // Detection-backend aggregates (journaled; see RunMetrics).
    std::string detectBackend;
    uint64_t detectChecked = 0;
    uint64_t detectMismatches = 0;
    uint64_t detectExternal = 0;
    uint64_t detectReplays = 0;
    uint64_t detectReplayedInsts = 0;
    uint64_t detectOverhead = 0;

    /**
     * Detection latency distribution per fault target (log2 buckets),
     * keyed by faultTargetName(). Journaled as compact bucket counts,
     * so resumed trials reproduce the report's histograms exactly.
     */
    std::map<std::string, Histogram> latencyByTarget;
};

/** Aggregated counts (whole campaign or one workload). */
struct CampaignTally
{
    uint64_t trials = 0;
    uint64_t faultsPlanned = 0;
    uint64_t faultsInjected = 0;
    uint64_t faultsDetected = 0;
    std::array<uint64_t, kNumTrialOutcomes> byOutcome{};
    uint64_t degradedRuns = 0;

    // Detection latency over detected fault records.
    uint64_t latencySamples = 0;
    Cycle latencyTotal = 0;
    Cycle latencyMax = 0;

    // Detection-backend totals over the tally's trials.
    uint64_t cyclesTotal = 0;
    uint64_t detectChecked = 0;
    uint64_t detectMismatches = 0;
    uint64_t detectExternal = 0;
    uint64_t detectOverhead = 0;

    /** Per-trial detection-overhead distribution (log2 buckets). */
    Histogram overheadHist;

    /** Per-target latency histograms, merged over the tally's trials. */
    std::map<std::string, Histogram> latencyByTarget;

    /**
     * Trials whose final outcome was a worker death, by cause
     * ("SIGSEGV", "exit_3", ...). A trial re-dispatched after a crash
     * and then succeeding does not appear. Empty when no worker died
     * — in-process (`none`) campaigns always, healthy fork campaigns
     * too — so reports stay byte-identical across isolation modes.
     */
    std::map<std::string, uint64_t> crashBySignal;

    void add(const TrialRecord &trial);

    uint64_t
    outcomes(TrialOutcome o) const
    {
        return byOutcome[static_cast<unsigned>(o)];
    }

    double
    avgLatency() const
    {
        return latencySamples
                   ? static_cast<double>(latencyTotal) / latencySamples
                   : 0.0;
    }

    /**
     * The report keys, in report order: the one list campaignJson()
     * renders and readFaultReport() parses (harness/fault_report.hh).
     * worker_crashes is present only when a worker died, and the report
     * carries the latency mean in place of the total.
     */
    template <typename Self, typename Visit>
    static void
    reportFields(Self &self, Visit &&v)
    {
        v("trials", self.trials);
        v.group("faults", [&](auto &&g) {
            g("planned", self.faultsPlanned);
            g("injected", self.faultsInjected);
            g("detected", self.faultsDetected);
        });
        v.group("outcomes", [&](auto &&g) {
            for (unsigned o = 0; o < kNumTrialOutcomes; ++o)
                g(trialOutcomeName(TrialOutcome(o)), self.byOutcome[o]);
        });
        v("degraded_runs", self.degradedRuns);
        v("cycles_total", self.cyclesTotal);
        v.group("detect", [&](auto &&g) {
            g("checked", self.detectChecked);
            g("mismatches", self.detectMismatches);
            g("external", self.detectExternal);
            g("overhead_cycles", self.detectOverhead);
        });
        v("detect_overhead_histogram", self.overheadHist);
        v("worker_crashes", self.crashBySignal, !self.crashBySignal.empty());
        v.group("detection_latency_cycles", [&](auto &&g) {
            g("samples", self.latencySamples);
            g.mean("avg", self.latencyTotal, self.latencySamples);
            g("max", self.latencyMax);
        });
        v("detection_latency_histogram", self.latencyByTarget);
    }
};

/** One workload's tally, as the report lists it. */
struct WorkloadTally
{
    std::string name;
    CampaignTally tally;

    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("name", self.name);
        CampaignTally::reportFields(self.tally, v);
    }
};

struct FaultCampaignResult
{
    std::vector<TrialRecord> trials;

    /** Per-workload tallies in config order, plus the grand total. */
    std::vector<WorkloadTally> perWorkload;
    CampaignTally total;
};

// ---------------------------------------------------------------------
// The campaign pipeline, stage by stage. runFaultCampaign() composes
// these; the slipd campaign server drives them one trial at a time
// (plan -> cache probe -> execute -> record -> render), so a trial
// served remotely reports byte-for-byte what the batch CLI reports.
// ---------------------------------------------------------------------

/** One planned trial: workload, fault plans, and its cycle cap. */
struct CampaignTrialSpec
{
    /**
     * The shared immutable ProgramCache::Entry (program + golden);
     * consumers recover it with
     * static_cast<const ProgramCache::Entry *>(entry).
     */
    const void *entry = nullptr;
    std::string workload;
    std::vector<FaultPlan> plans;
    Cycle maxCycles = 0;
};

/**
 * The first dynamic index a campaign fault may sit at in a program of
 * `goldenInstCount` instructions: N/4, the start of the steady-state
 * half the planner draws from. It is also where every trial's shared
 * fault-free checkpoint sits (harness/checkpoint_cache.hh).
 */
constexpr uint64_t
faultWindowStart(uint64_t goldenInstCount)
{
    return goldenInstCount / 4;
}

/**
 * Draw every trial's plan list, serially from one Rng seeded with
 * cfg.seed, in a fixed order — the determinism root for any worker
 * count, any isolation mode, and any client count. Index i in the
 * returned vector is campaign trial i everywhere (journal, cache,
 * serve protocol).
 */
std::vector<CampaignTrialSpec>
planCampaignTrials(const FaultCampaignConfig &cfg);

/**
 * One trial's identity: a hash of wire::kVersion, cfg's keyFields(),
 * the program's image digest, and the spec's workload, trial index,
 * cycle cap and plans. It names the trial's cache entry and rides in
 * its journal line. `spec` must be planCampaignTrials(cfg)[trial].
 */
Hash128 campaignTrialKey(const FaultCampaignConfig &cfg,
                         const CampaignTrialSpec &spec, size_t trial);

/**
 * Execute one planned trial (the exact job body batch campaigns run:
 * trialHook, then the armed slipstream simulation under the spec's
 * cycle cap). The simulation starts from the workload's shared
 * fault-free checkpoint when it can (harness/checkpoint_cache.hh); a
 * trial whose TrialTrace is live runs cold, since its trace starts at
 * cycle 0.
 */
RunMetrics runCampaignTrial(const FaultCampaignConfig &cfg,
                            const CampaignTrialSpec &spec, size_t trial,
                            const CancelToken &cancel);

/**
 * Classify one finished job into the TrialRecord the tallies, the
 * journal, and the JSONL stream consume — including crash triage for
 * trials whose worker died.
 */
TrialRecord recordCampaignTrial(const FaultCampaignConfig &cfg,
                                const CampaignTrialSpec &spec,
                                size_t trial, const JobOutcome &outcome);

/**
 * One trial as its canonical JSONL journal line (no trailing
 * newline). The journal, the serve result stream, and the result
 * cache all store exactly these bytes.
 */
std::string campaignTrialLine(const FaultCampaignConfig &cfg,
                              size_t trial, const TrialRecord &t);

/** Run the campaign (parallel trials, deterministic results). */
FaultCampaignResult runFaultCampaign(const FaultCampaignConfig &cfg);

} // namespace slip

#endif // SLIPSTREAM_HARNESS_FAULT_CAMPAIGN_HH
