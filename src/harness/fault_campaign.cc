#include "harness/fault_campaign.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <unistd.h>

#include "common/crash_report.hh"
#include "common/env.hh"
#include "common/fd_io.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "fuzz/repro.hh"
#include "harness/checkpoint_cache.hh"
#include "harness/sim_runner.hh"
#include "harness/wire.hh"
#include "obs/trace_session.hh"

namespace slip
{

const char *
trialOutcomeName(TrialOutcome outcome)
{
    switch (outcome) {
      case TrialOutcome::DetectedRecovered:
        return "detected_recovered";
      case TrialOutcome::HungRecovered:
        return "hung_recovered";
      case TrialOutcome::SilentBenign:
        return "silent_benign";
      case TrialOutcome::SilentCorrupt:
        return "silent_corrupt";
      case TrialOutcome::DetectedButCorrupt:
        return "detected_but_corrupt";
      case TrialOutcome::NoVictim:
        return "no_victim";
      case TrialOutcome::Hung:
        return "hung";
      case TrialOutcome::TimedOut:
        return "timed_out";
      case TrialOutcome::Crashed:
        return "crashed";
      case TrialOutcome::DetectedUnrepaired:
        return "detected_unrepaired";
    }
    return "?";
}

bool
trialOutcomeFromName(const std::string &name, TrialOutcome &out)
{
    for (unsigned o = 0; o < kNumTrialOutcomes; ++o) {
        if (name == trialOutcomeName(TrialOutcome(o))) {
            out = TrialOutcome(o);
            return true;
        }
    }
    return false;
}

TrialOutcome
classifyTrial(const RunMetrics &m)
{
    if (m.cancelled)
        return TrialOutcome::TimedOut;
    if (m.hung)
        return TrialOutcome::Hung;
    if (m.faultOutcome.numInjected == 0)
        return TrialOutcome::NoVictim;
    if (m.outputCorrect) {
        if (m.watchdogTrips > 0)
            return TrialOutcome::HungRecovered;
        if (m.faultOutcome.numDetected > 0)
            return TrialOutcome::DetectedRecovered;
        return TrialOutcome::SilentBenign;
    }
    // Corrupted output with an undetected landed fault is that
    // fault's doing (scenario #2). When every landed fault was
    // detected, ask who detected: an external backend observes but
    // never repairs, so corruption it caught is expected
    // (detected-unrepaired); if the *repairing* mechanism claimed
    // every detection, a corrupt output is anomalous.
    if (m.faultOutcome.numDetected < m.faultOutcome.numInjected)
        return TrialOutcome::SilentCorrupt;
    return m.detectExternal > 0 ? TrialOutcome::DetectedUnrepaired
                                : TrialOutcome::DetectedButCorrupt;
}

std::vector<FaultTarget>
defaultCampaignTargets(bool reliableMode)
{
    if (reliableMode) {
        return {FaultTarget::AStream,          FaultTarget::RPipeline,
                FaultTarget::DelayBufferValue,
                FaultTarget::DelayBufferBranch, FaultTarget::ARegister,
                FaultTarget::AStreamStall};
    }
    return {FaultTarget::AStream,           FaultTarget::RPipeline,
            FaultTarget::DelayBufferValue,  FaultTarget::DelayBufferBranch,
            FaultTarget::IRPredictor,       FaultTarget::ARegister,
            FaultTarget::MemoryCell,        FaultTarget::AStreamStall};
}

FaultCampaignConfig::FaultCampaignConfig()
{
    // Campaign trials deliberately provoke stalls (AStreamStall, wild
    // A-side corruption): a short watchdog fuse keeps those trials
    // cheap without risking false trips — healthy runs never go even
    // hundreds of cycles without R retirement.
    params.watchdog.stallCycles = 20'000;
    isolation = isolationFromEnv();
    // $SLIPSTREAM_DETECT (strict) picks the detection architecture
    // every trial runs under.
    params.detect.kind = detectBackendFromEnv(params.detect.kind);
}

void
CampaignTally::add(const TrialRecord &trial)
{
    // Consumes only the trial's journaled aggregates, so resumed
    // trials (reconstructed from the journal, no metrics) tally
    // exactly as live ones do.
    ++trials;
    faultsPlanned += trial.faultsPlanned;
    faultsInjected += trial.faultsInjected;
    faultsDetected += trial.faultsDetected;
    ++byOutcome[static_cast<unsigned>(trial.outcome)];
    if (trial.degraded)
        ++degradedRuns;
    latencySamples += trial.latencySamples;
    latencyTotal += trial.latencyTotal;
    latencyMax = std::max(latencyMax, trial.latencyMax);
    cyclesTotal += trial.cycles;
    detectChecked += trial.detectChecked;
    detectMismatches += trial.detectMismatches;
    detectExternal += trial.detectExternal;
    detectOverhead += trial.detectOverhead;
    if (trial.detectOverhead)
        overheadHist.sample(trial.detectOverhead);
    for (const auto &[target, hist] : trial.latencyByTarget)
        latencyByTarget[target].merge(hist);
    if (trial.crashSignal != 0) {
        char scratch[32];
        ++crashBySignal[crashSignalName(trial.crashSignal, scratch,
                                        sizeof(scratch))];
    } else if (!trial.crashPhase.empty()) {
        // A worker death without a signal is a bare _exit().
        ++crashBySignal["exit_" + std::to_string(trial.crashExit)];
    }
}

namespace
{

/**
 * Repro bundles the quarantine directory may hold. A pathological
 * campaign (every trial poisoned) must not fill the disk; at the cap
 * new bundles are skipped loudly and existing ones, being findings,
 * are never pruned.
 */
constexpr uint64_t kMaxQuarantineBundles = 32;

std::string
resolveJournalPath(const FaultCampaignConfig &cfg)
{
    if (!cfg.journalPath.empty())
        return cfg.journalPath;
    if (const char *env = std::getenv("SLIPSTREAM_FAULT_JOURNAL"))
        if (*env)
            return env;
    return "results/fault_campaign.journal.jsonl";
}

/**
 * Whether this is the first time the process opens `path` as a
 * journal. A fresh (non-resume) campaign truncates the journal on
 * the process's first open only, so multi-campaign benches keep one
 * journal covering the whole invocation — and a kill during campaign
 * 3 still resumes campaigns 1 and 2 from their journaled trials.
 */
bool
firstJournalOpen(const std::string &path)
{
    static std::mutex mu;
    static std::set<std::string> opened;
    std::lock_guard<std::mutex> lock(mu);
    return opened.insert(path).second;
}

/**
 * Compact per-target histogram encoding for the journal:
 * "target=bucket:count,bucket:count;target2=..." (non-zero buckets
 * only; empty when the trial detected nothing). Only bucket counts
 * round-trip — and only bucket counts reach the report — so a
 * resumed campaign renders byte-identical histograms.
 */
std::string
encodeLatencyHistograms(const std::map<std::string, Histogram> &hists)
{
    std::ostringstream out;
    bool firstTarget = true;
    for (const auto &[target, h] : hists) {
        if (h.count() == 0)
            continue;
        if (!firstTarget)
            out << ';';
        firstTarget = false;
        out << target << '=';
        bool firstBucket = true;
        for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
            if (!h.bucket(b))
                continue;
            if (!firstBucket)
                out << ',';
            firstBucket = false;
            out << b << ':' << h.bucket(b);
        }
    }
    return out.str();
}

/** Read back what encodeLatencyHistograms() wrote. */
void
decodeLatencyHistograms(const std::string &enc,
                        std::map<std::string, Histogram> &out)
{
    std::istringstream targets(enc);
    std::string part;
    while (std::getline(targets, part, ';')) {
        const size_t eq = part.find('=');
        Histogram &h = out[part.substr(0, eq)];
        std::istringstream buckets(part.substr(eq + 1));
        unsigned b = 0;
        uint64_t n = 0;
        char colon;
        while (buckets >> b >> colon >> n && b < Histogram::kBuckets) {
            h.addToBucket(b, n);
            buckets.ignore(1); // the ',' between buckets
        }
    }
}

/** What a journal line says about its trial beyond the TrialRecord. */
struct JournalId
{
    std::string campaign;
    uint64_t seed = 0;
    uint64_t trial = 0;
};

/**
 * A journal line's fields, in line order: the one list that the
 * writer (campaignTrialLine) and the resume reader both walk. The
 * worker-death triage rides along only when a worker actually died,
 * so healthy trials' lines are byte-identical across isolation modes.
 */
template <typename Id, typename Record, typename Visit>
void
journalFields(Id &id, Record &t, Visit &&v)
{
    v("campaign", id.campaign);
    v("seed", id.seed);
    v("trial", id.trial);
    v("key", t.key);
    v("workload", t.workload);
    v("outcome", t.outcome);
    v("planned", t.faultsPlanned);
    v("injected", t.faultsInjected);
    v("detected", t.faultsDetected);
    v("degraded", t.degraded);
    v("latency_samples", t.latencySamples);
    v("latency_total", t.latencyTotal);
    v("latency_max", t.latencyMax);
    v("lat_hist", t.latencyByTarget);
    v("cycles", t.cycles);
    v("backend", t.detectBackend);
    v("checked", t.detectChecked);
    v("det_mismatch", t.detectMismatches);
    v("det_external", t.detectExternal);
    v("det_replays", t.detectReplays);
    v("det_replayed", t.detectReplayedInsts);
    v("det_overhead", t.detectOverhead);
    v("error", t.error);
    const bool workerDied = !t.crashPhase.empty();
    v("signal", t.crashSignal, workerDied);
    v("wexit", t.crashExit, workerDied);
    v("crash_phase", t.crashPhase, workerDied);
}

/** One journal field's JSON text. */
template <typename T>
std::string
toJson(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        return '"' + jsonEscape(v) + '"';
    else if constexpr (std::is_same_v<T, TrialOutcome>)
        return toJson(std::string(trialOutcomeName(v)));
    else if constexpr (std::is_same_v<T, Hash128>)
        return toJson(v.hex());
    else if constexpr (std::is_same_v<T, bool>)
        return v ? "1" : "0";
    else if constexpr (std::is_integral_v<T>)
        return std::to_string(v);
    else
        return toJson(encodeLatencyHistograms(v));
}

/**
 * The inverse of toJson(). Nothing is validated: resume re-renders
 * what it read and compares, so a value that reads as something else
 * is caught there.
 */
template <typename T>
void
fromJson(const Json &j, T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        v = j.str;
    else if constexpr (std::is_same_v<T, TrialOutcome>)
        trialOutcomeFromName(j.str, v);
    else if constexpr (std::is_same_v<T, Hash128>)
        return; // recomputed from the config
    else if constexpr (std::is_same_v<T, bool>)
        v = j.str != "0";
    else if constexpr (std::is_integral_v<T>)
        jsonNumber(j, v);
    else
        decodeLatencyHistograms(j.str, v);
}

/**
 * Fill `id` and `t` from a line campaignTrialLine() wrote, walking
 * journalFields(). A field the line lacks keeps its default, which is
 * how the optional triage reads back. False when the line is no JSON
 * object (a torn tail).
 */
bool
readJournalLine(const std::string &line, JournalId &id, TrialRecord &t)
{
    Json j;
    try {
        j = parseJson(line);
    } catch (const JsonError &) {
        return false;
    }
    journalFields(id, t, [&](const char *name, auto &field, bool = true) {
        if (const Json *f = j.get(name))
            fromJson(*f, field);
    });
    return j.kind == Json::Obj;
}

/**
 * Append-and-flush journal of completed trials, on a raw fd so each
 * line can be fsync'd. Flushing alone survives process death (the
 * page cache holds the bytes); only fsync survives power loss — that
 * durability costs ~ms per trial, so it is a knob
 * ($SLIPSTREAM_JOURNAL_FSYNC, default on; the test suite turns it
 * off). Opening failures warn and disable journaling; they never
 * take down the campaign.
 */
class TrialJournal
{
  public:
    TrialJournal(const std::string &path, bool resume, bool fsyncEach)
        : path_(path), fsyncEach_(fsyncEach)
    {
        try {
            const std::filesystem::path dir =
                std::filesystem::path(path_).parent_path();
            if (!dir.empty())
                std::filesystem::create_directories(dir);
        } catch (const std::exception &e) {
            SLIP_WARN("cannot create directory for campaign journal '",
                      path_, "': ", e.what());
        }
        const bool truncate = !resume && firstJournalOpen(path_);
        fd_ = ::open(path_.c_str(),
                     O_RDWR | O_CREAT | O_APPEND |
                         (truncate ? O_TRUNC : 0),
                     0644);
        if (fd_ < 0) {
            SLIP_WARN("cannot open campaign journal '", path_,
                      "'; trials will not be journaled (a killed "
                      "campaign cannot be resumed)");
            return;
        }
        // A writer killed mid-line leaves a torn tail. The first line
        // appended ends it, so the line starts a line of its own
        // instead of gluing onto the fragment.
        char last = '\n';
        const off_t size = ::lseek(fd_, 0, SEEK_END);
        tornTail_ = size > 0 && ::pread(fd_, &last, 1, size - 1) == 1 &&
                    last != '\n';
    }

    ~TrialJournal()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    append(const std::string &line)
    {
        if (fd_ < 0)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        // One write() per line: O_APPEND makes the line land whole
        // even if several campaigns share the journal file.
        const std::string bytes = (tornTail_ ? "\n" : "") + line + "\n";
        tornTail_ = false;
        if (!writeAll(fd_, bytes.data(), bytes.size())) {
            SLIP_WARN("write to campaign journal '", path_,
                      "' failed; journaling disabled");
            ::close(fd_);
            fd_ = -1;
            return;
        }
        if (fsyncEach_)
            ::fsync(fd_);
    }

  private:
    std::string path_;
    bool fsyncEach_;
    std::mutex mu_;
    int fd_ = -1;
    bool tornTail_ = false;
};

/** Per-trial aggregates the tallies and the journal consume. */
void
fillAggregates(TrialRecord &t)
{
    const FaultOutcome &fo = t.metrics.faultOutcome;
    t.faultsInjected = fo.numInjected;
    t.faultsDetected = fo.numDetected;
    t.degraded = t.metrics.degraded;
    t.cycles = t.metrics.cycles;
    t.detectChecked = t.metrics.detectChecked;
    t.detectMismatches = t.metrics.detectMismatches;
    t.detectExternal = t.metrics.detectExternal;
    t.detectReplays = t.metrics.detectReplays;
    t.detectReplayedInsts = t.metrics.detectReplayedInsts;
    t.detectOverhead = t.metrics.detectOverheadCycles;
    for (const FaultRecord &r : fo.records) {
        if (!r.detected)
            continue;
        const Cycle latency = r.detectionLatency();
        ++t.latencySamples;
        t.latencyTotal += latency;
        t.latencyMax = std::max(t.latencyMax, latency);
        t.latencyByTarget[faultTargetName(r.plan.target)].sample(
            latency);
    }
}

/**
 * What a trial's record takes from its config and planned spec, not
 * from its run. recordCampaignTrial() and resume both start here, so a
 * journal line is only ever compared against what this config says.
 */
void
stampIdentity(const FaultCampaignConfig &cfg,
              const CampaignTrialSpec &spec, size_t trial, TrialRecord &t)
{
    t.key = campaignTrialKey(cfg, spec, trial);
    t.workload = spec.workload;
    t.plans = spec.plans;
    t.faultsPlanned = spec.plans.size();
    // Every trial ran under the config's backend, whatever its
    // outcome — crashed trials included.
    t.detectBackend = detectBackendName(cfg.params.detect.kind);
}

} // namespace

std::vector<CampaignTrialSpec>
planCampaignTrials(const FaultCampaignConfig &cfg)
{
    std::vector<std::string> names = cfg.workloads;
    if (names.empty())
        for (const Workload &w : allWorkloads(cfg.size))
            names.push_back(w.name);

    const std::vector<FaultTarget> targets =
        !cfg.targets.empty() ? cfg.targets
                             : defaultCampaignTargets(cfg.reliableMode);
    SLIP_ASSERT(!targets.empty(), "campaign has no fault targets");
    SLIP_ASSERT(cfg.minFaultsPerTrial >= 1 &&
                    cfg.minFaultsPerTrial <= cfg.maxFaultsPerTrial,
                "bad faults-per-trial range [", cfg.minFaultsPerTrial,
                ", ", cfg.maxFaultsPerTrial, "]");

    // Draw every trial's plan list serially, in a fixed order, before
    // any job runs: determinism for any worker count — and for any
    // *client* count, since the serve protocol addresses trials by
    // index into exactly this vector.
    Rng rng(cfg.seed);
    std::vector<CampaignTrialSpec> specs;
    for (const std::string &name : names) {
        const ProgramCache::Entry &e =
            ProgramCache::global().get(name, cfg.size);
        // Generous completion allowance: the full run at a pessimistic
        // IPC, plus every watchdog trip the processor may spend.
        const Cycle maxCycles =
            e.goldenInstCount * cfg.cycleCapPerInst +
            Cycle(cfg.params.watchdog.maxTrips + 2) *
                cfg.params.watchdog.stallCycles +
            100'000;
        for (unsigned t = 0; t < cfg.trialsPerWorkload; ++t) {
            const unsigned numFaults =
                cfg.minFaultsPerTrial +
                unsigned(rng.below(cfg.maxFaultsPerTrial -
                                   cfg.minFaultsPerTrial + 1));
            std::vector<FaultPlan> plans;
            for (unsigned k = 0; k < numFaults; ++k) {
                FaultPlan p;
                p.target = targets[rng.below(targets.size())];
                // Inject in the steady-state half of the run.
                p.dynIndex =
                    faultWindowStart(e.goldenInstCount) +
                    rng.below(std::max<uint64_t>(
                        e.goldenInstCount / 2, 1));
                p.bit = unsigned(rng.below(64));
                p.reg = RegIndex(1 + rng.below(kNumRegs - 1));
                plans.push_back(p);
            }
            specs.push_back(
                {&e, name, std::move(plans), maxCycles});
        }
    }
    return specs;
}

Hash128
campaignTrialKey(const FaultCampaignConfig &cfg,
                 const CampaignTrialSpec &spec, size_t trial)
{
    const auto *entry =
        static_cast<const ProgramCache::Entry *>(spec.entry);
    wire::Encoder enc;
    // The wire revision versions the whole serialization: bump
    // wire::kVersion and every key changes.
    enc.putU16(wire::kVersion);
    FaultCampaignConfig::keyFields(
        cfg, [&enc](const char *, const auto &f) { enc.put(f); });
    // The program by its assembled image, not its source text
    // (ProgramCache computed the digest once, when it loaded it).
    enc.put(entry->imageDigest.hi);
    enc.put(entry->imageDigest.lo);
    enc.put(spec.workload);
    enc.put(uint64_t(trial));
    enc.put(spec.maxCycles);
    // The drawn plans rather than the Rng inputs, so the key stays
    // honest if planning ever changes.
    enc.put(spec.plans);
    Fnv128 h;
    h.put(enc.bytes().data(), enc.bytes().size());
    return h.digest();
}

RunMetrics
runCampaignTrial(const FaultCampaignConfig &cfg,
                 const CampaignTrialSpec &spec, size_t trial,
                 const CancelToken &cancel)
{
    const auto *entry =
        static_cast<const ProgramCache::Entry *>(spec.entry);
    const std::string trialName =
        cfg.name + "_" + spec.workload + "_t" + std::to_string(trial);
    obs::TrialTrace scope(trialName);
    if (cfg.trialHook)
        cfg.trialHook(trial);
    SlipstreamParams params = cfg.params;
    if (cfg.reliableMode)
        params.irPred.enabled = false;
    RunMetrics m = CheckpointCache::global().runTrial(
        *entry, params, spec.plans, spec.maxCycles, &cancel,
        !scope.active());
    if (m.cancelled) {
        SLIP_TRACE(obs::Category::Trial, obs::Name::TrialTimeout,
                   obs::Phase::Instant, m.cycles, 0);
    }
    return m;
}

TrialRecord
recordCampaignTrial(const FaultCampaignConfig &cfg,
                    const CampaignTrialSpec &spec, size_t trial,
                    const JobOutcome &o)
{
    TrialRecord t;
    stampIdentity(cfg, spec, trial, t);
    switch (o.status) {
      case JobOutcome::Status::Ok:
        t.metrics = o.metrics;
        t.outcome = classifyTrial(t.metrics);
        fillAggregates(t);
        break;
      case JobOutcome::Status::TimedOut:
        t.metrics = o.metrics; // partial, still informative
        t.outcome = TrialOutcome::TimedOut;
        fillAggregates(t);
        break;
      case JobOutcome::Status::Error:
        t.outcome = TrialOutcome::Crashed;
        t.error = std::string(errorKindName(o.errorKind)) + ": " +
                  o.errorMessage;
        SLIP_WARN("campaign '", cfg.name, "' trial ", trial,
                  " crashed (", t.error, "); siblings unaffected");
        break;
      case JobOutcome::Status::Crashed:
        // A worker process died under this trial (fork isolation):
        // signal + last-known phase from the supervisor's triage.
        t.outcome = TrialOutcome::Crashed;
        t.error = o.errorMessage;
        t.crashSignal = o.termSignal;
        t.crashExit = o.termExitCode;
        t.crashPhase = trialPhaseName(o.crashPhase);
        SLIP_WARN("campaign '", cfg.name, "' trial ", trial,
                  " lost its worker (", t.error,
                  "); siblings unaffected");
        break;
    }
    return t;
}

std::string
campaignTrialLine(const FaultCampaignConfig &cfg, size_t trial,
                  const TrialRecord &t)
{
    const JournalId id{cfg.name, cfg.seed, trial};
    std::string line;
    journalFields(id, t, [&](const char *name, const auto &field,
                             bool present = true) {
        if (present)
            line += (line.empty() ? "{\"" : ",\"") + std::string(name) +
                    "\":" + toJson(field);
    });
    return line + '}';
}

FaultCampaignResult
runFaultCampaign(const FaultCampaignConfig &cfg)
{
    std::vector<std::string> names = cfg.workloads;
    if (names.empty())
        for (const Workload &w : allWorkloads(cfg.size))
            names.push_back(w.name);

    const std::vector<CampaignTrialSpec> specs =
        planCampaignTrials(cfg);

    const std::string journalPath = resolveJournalPath(cfg);

    // Resume: adopt a journal line only if this config would have
    // written it byte for byte. Torn lines, other campaigns' lines and
    // lines written under another config (a different size, backend,
    // mode, or any other keyed field) all fail that one comparison and
    // their trials re-run.
    std::vector<std::optional<TrialRecord>> done(specs.size());
    if (cfg.resume) {
        std::ifstream in(journalPath);
        std::string line;
        size_t used = 0, ignored = 0;
        while (std::getline(in, line)) {
            JournalId id;
            TrialRecord t;
            if (readJournalLine(line, id, t) && id.trial < specs.size()) {
                stampIdentity(cfg, specs[id.trial], id.trial, t);
                if (campaignTrialLine(cfg, id.trial, t) == line) {
                    if (!done[id.trial])
                        ++used;
                    done[id.trial] = std::move(t);
                    continue;
                }
            }
            ++ignored;
        }
        SLIP_INFORM("resuming campaign '", cfg.name, "': ", used, " of ",
                    specs.size(), " trials restored from ", journalPath,
                    " (", ignored, " other line(s) ignored)");
    }

    const bool fsyncEach =
        cfg.journalFsync >= 0
            ? cfg.journalFsync != 0
            : envFlag("SLIPSTREAM_JOURNAL_FSYNC", true);
    TrialJournal journal(journalPath, cfg.resume, fsyncEach);

    SimJobRunner runner(cfg.workers);
    runner.setIsolation(cfg.isolation);
    std::vector<size_t> jobToSpec;
    for (size_t i = 0; i < specs.size(); ++i) {
        if (done[i])
            continue;
        jobToSpec.push_back(i);
        const CampaignTrialSpec *s = &specs[i];
        runner.add([&cfg, s, i](const CancelToken &cancel) {
            return runCampaignTrial(cfg, *s, i, cancel);
        });
    }

    // A poisoned trial (crashed its way past the poison threshold)
    // leaves a repro bundle behind — the campaign's findings must
    // survive the campaign. Quarantine failures warn; they never take
    // down the supervisor.
    const auto quarantine = [&](size_t i, const TrialRecord &t) {
        try {
            uint64_t existing = 0;
            if (std::filesystem::is_directory(cfg.quarantineDir))
                for ([[maybe_unused]] const auto &entry :
                     std::filesystem::directory_iterator(
                         cfg.quarantineDir))
                    ++existing;
            if (existing >= kMaxQuarantineBundles) {
                SLIP_WARN("quarantine '", cfg.quarantineDir,
                          "' is at its cap (", existing, " of ",
                          kMaxQuarantineBundles, " bundles); NOT writing "
                          "a bundle for trial ", i,
                          " — clear the directory");
                return;
            }
            fuzz::ReproSpec spec;
            spec.seed = cfg.seed;
            spec.bundleName = cfg.name + "_trial_" + std::to_string(i);
            spec.title = "Slipstream campaign poison trial";
            spec.configSummary = "campaign '" + cfg.name +
                                 "', workload " + t.workload +
                                 ", trial " + std::to_string(i);
            spec.replayCommand =
                "tools/slip_campaign --isolation fork --seed " +
                std::to_string(cfg.seed) + "   # trial " +
                std::to_string(i) + " re-crashes deterministically";
            spec.report = "poisoned trial " + std::to_string(i) + ": " +
                          t.error;
            spec.originalSource =
                getWorkload(t.workload, cfg.size).source;
            spec.minimizedSource = spec.originalSource;
            spec.faults = t.plans;
            const std::string dir =
                fuzz::writeReproBundle(cfg.quarantineDir, spec);
            SLIP_WARN("campaign '", cfg.name, "' trial ", i,
                      " quarantined: ", dir);
        } catch (const std::exception &e) {
            SLIP_WARN("failed to quarantine poisoned trial ", i, ": ",
                      e.what());
        }
    };

    // Supervised execution: a throwing, reaped, or crashing trial
    // becomes a classified record instead of voiding the batch.
    // Journal lines commit in trial order, not completion order, so a
    // campaign journal is byte-identical across SLIPSTREAM_JOBS and
    // isolation modes. A finished trial waits in memory until every
    // earlier trial has finished, so one slow trial (a hung trial
    // running to its cycle cap, say) holds back every trial that
    // finishes while it runs, up to the rest of the campaign, in
    // either isolation mode. A kill in that window re-runs them on
    // resume instead of journaling them out of order. Trials restored
    // by resume are already in the journal and only advance the
    // cursor.
    std::vector<bool> journaled(specs.size(), false);
    for (size_t i = 0; i < specs.size(); ++i)
        journaled[i] = bool(done[i]);
    size_t nextToJournal = 0;
    runner.runSupervised([&](size_t job, const JobOutcome &o) {
        const size_t i = jobToSpec[job];
        TrialRecord t = recordCampaignTrial(cfg, specs[i], i, o);
        if (o.status == JobOutcome::Status::Crashed && o.poisoned)
            quarantine(i, t);
        done[i] = std::move(t);
        while (nextToJournal < specs.size() && done[nextToJournal]) {
            if (!journaled[nextToJournal]) {
                journal.append(campaignTrialLine(
                    cfg, nextToJournal, *done[nextToJournal]));
                journaled[nextToJournal] = true;
            }
            ++nextToJournal;
        }
    });

    FaultCampaignResult result;
    result.perWorkload.reserve(names.size());
    for (const std::string &name : names)
        result.perWorkload.push_back({name, {}});
    for (size_t i = 0; i < specs.size(); ++i) {
        SLIP_ASSERT(done[i], "campaign trial ", i, " never finished");
        TrialRecord trial = std::move(*done[i]);
        result.total.add(trial);
        for (auto &[wname, tally] : result.perWorkload)
            if (wname == trial.workload)
                tally.add(trial);
        result.trials.push_back(std::move(trial));
    }
    return result;
}

} // namespace slip
