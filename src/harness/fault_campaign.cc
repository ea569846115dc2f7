#include "harness/fault_campaign.hh"

#include <algorithm>
#include <cerrno>
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
#include "common/logging.hh"
#include "common/random.hh"
#include "fuzz/repro.hh"
#include "harness/sim_runner.hh"
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
    // $SLIPSTREAM_DETECT (strict) + the backend tuning knobs pick the
    // detection architecture every trial runs under.
    params.detect = detectParamsFromEnv(params.detect);
    // $SLIPSTREAM_ASTREAM_POLICY (strict) picks the A-stream
    // shortening policy the same way.
    params.aPolicy.kind = aStreamPolicyFromEnv(params.aPolicy.kind);
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

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += ' ';
            else
                out += c;
        }
    }
    return out;
}

/** Extract "key":"value" from a journal line we wrote ourselves. */
bool
jsonFieldString(const std::string &line, const char *key,
                std::string &out)
{
    const std::string needle = std::string("\"") + key + "\":\"";
    const size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    out.clear();
    for (size_t i = at + needle.size(); i < line.size(); ++i) {
        char c = line[i];
        if (c == '\\' && i + 1 < line.size()) {
            char e = line[++i];
            out += e == 'n' ? '\n' : e == 'r' ? '\r' : e == 't' ? '\t'
                                                                : e;
            continue;
        }
        if (c == '"')
            return true;
        out += c;
    }
    return false; // unterminated string: a torn final line
}

/** Extract "key":<integer> from a journal line. */
bool
jsonFieldU64(const std::string &line, const char *key, uint64_t &out)
{
    const std::string needle = std::string("\"") + key + "\":";
    const size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    const char *p = line.c_str() + at + needle.size();
    char *end = nullptr;
    out = std::strtoull(p, &end, 10);
    return end != p;
}

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

void
decodeLatencyHistograms(const std::string &enc,
                        std::map<std::string, Histogram> &out)
{
    size_t pos = 0;
    while (pos < enc.size()) {
        size_t end = enc.find(';', pos);
        if (end == std::string::npos)
            end = enc.size();
        const std::string part = enc.substr(pos, end - pos);
        pos = end + 1;
        const size_t eq = part.find('=');
        if (eq == std::string::npos)
            continue;
        Histogram &h = out[part.substr(0, eq)];
        size_t p = eq + 1;
        while (p < part.size()) {
            size_t e = part.find(',', p);
            if (e == std::string::npos)
                e = part.size();
            char *after = nullptr;
            const unsigned long b =
                std::strtoul(part.c_str() + p, &after, 10);
            if (after && *after == ':' && b < Histogram::kBuckets) {
                const uint64_t n =
                    std::strtoull(after + 1, nullptr, 10);
                if (n)
                    h.addToBucket(unsigned(b), n);
            }
            p = e + 1;
        }
    }
}

std::string
journalLine(const FaultCampaignConfig &cfg, size_t trial,
            const TrialRecord &t)
{
    std::ostringstream out;
    out << "{\"campaign\":\"" << jsonEscape(cfg.name) << "\""
        << ",\"seed\":" << cfg.seed << ",\"trial\":" << trial
        << ",\"workload\":\"" << jsonEscape(t.workload) << "\""
        << ",\"outcome\":\"" << trialOutcomeName(t.outcome) << "\""
        << ",\"planned\":" << t.faultsPlanned
        << ",\"injected\":" << t.faultsInjected
        << ",\"detected\":" << t.faultsDetected
        << ",\"degraded\":" << (t.degraded ? 1 : 0)
        << ",\"latency_samples\":" << t.latencySamples
        << ",\"latency_total\":" << t.latencyTotal
        << ",\"latency_max\":" << t.latencyMax
        << ",\"lat_hist\":\""
        << jsonEscape(encodeLatencyHistograms(t.latencyByTarget))
        << "\",\"cycles\":" << t.cycles
        << ",\"backend\":\"" << jsonEscape(t.detectBackend) << "\""
        << ",\"checked\":" << t.detectChecked
        << ",\"det_mismatch\":" << t.detectMismatches
        << ",\"det_external\":" << t.detectExternal
        << ",\"det_replays\":" << t.detectReplays
        << ",\"det_replayed\":" << t.detectReplayedInsts
        << ",\"det_overhead\":" << t.detectOverhead
        << ",\"policy\":\"" << jsonEscape(t.aStreamPolicy) << "\""
        << ",\"error\":\"" << jsonEscape(t.error) << "\"";
    // Worker-death triage rides along only when a worker actually
    // died, so healthy trials' lines are byte-identical across
    // isolation modes (and to journals written before fork isolation
    // existed).
    if (!t.crashPhase.empty())
        out << ",\"signal\":" << t.crashSignal
            << ",\"wexit\":" << t.crashExit << ",\"crash_phase\":\""
            << jsonEscape(t.crashPhase) << "\"";
    out << "}";
    return out.str();
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
                     O_WRONLY | O_CREAT | O_APPEND |
                         (truncate ? O_TRUNC : 0),
                     0644);
        if (fd_ < 0)
            SLIP_WARN("cannot open campaign journal '", path_,
                      "'; trials will not be journaled (a killed "
                      "campaign cannot be resumed)");
    }

    ~TrialJournal()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    append(const FaultCampaignConfig &cfg, size_t trial,
           const TrialRecord &t)
    {
        if (fd_ < 0)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        // One write() per line: O_APPEND makes the line land whole
        // even if several campaigns share the journal file.
        const std::string line = journalLine(cfg, trial, t) + "\n";
        size_t off = 0;
        while (off < line.size()) {
            const ssize_t n =
                ::write(fd_, line.data() + off, line.size() - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                SLIP_WARN("write to campaign journal '", path_,
                          "' failed; journaling disabled");
                ::close(fd_);
                fd_ = -1;
                return;
            }
            off += size_t(n);
        }
        if (fsyncEach_)
            ::fsync(fd_);
    }

  private:
    std::string path_;
    bool fsyncEach_;
    std::mutex mu_;
    int fd_ = -1;
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
                    e.goldenInstCount / 4 +
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
    RunMetrics m = runSlipstream(entry->program, params, entry->golden,
                                 spec.plans, spec.maxCycles, &cancel);
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
    t.workload = spec.workload;
    t.plans = spec.plans;
    t.faultsPlanned = spec.plans.size();
    // Every trial ran under the config's backend and A-stream policy,
    // whatever its outcome — crashed trials included, so they resume
    // cleanly.
    t.detectBackend = detectBackendName(cfg.params.detect.kind);
    t.aStreamPolicy = aStreamPolicyName(cfg.params.aPolicy.kind);
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
    return journalLine(cfg, trial, t);
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
    const bool resume =
        cfg.resume || envFlag("SLIPSTREAM_CAMPAIGN_RESUME", false);

    // Resume: reconstruct already-journaled trials. A line counts
    // only if campaign name, seed, trial index, and workload all
    // match the freshly drawn plan — a journal from a different
    // configuration can never leak into the report.
    std::vector<std::optional<TrialRecord>> done(specs.size());
    if (resume) {
        std::ifstream in(journalPath);
        std::string line;
        size_t used = 0, skipped = 0;
        while (in && std::getline(in, line)) {
            if (line.empty())
                continue;
            std::string campaign, workload, outcomeName, error;
            uint64_t seed = 0, trial = 0;
            // A sound line is a complete object whose *last* field
            // ("error") parses — a torn final line from a killed
            // writer fails one of these even when its leading fields
            // survived the cut.
            if (line.front() != '{' || line.back() != '}' ||
                !jsonFieldString(line, "campaign", campaign) ||
                !jsonFieldU64(line, "seed", seed) ||
                !jsonFieldU64(line, "trial", trial) ||
                !jsonFieldString(line, "workload", workload) ||
                !jsonFieldString(line, "outcome", outcomeName) ||
                !jsonFieldString(line, "error", error)) {
                ++skipped; // torn or foreign line
                continue;
            }
            if (campaign != cfg.name || seed != cfg.seed)
                continue; // another campaign's journal entries
            TrialOutcome outcome;
            if (trial >= specs.size() ||
                workload != specs[trial].workload ||
                !trialOutcomeFromName(outcomeName, outcome)) {
                ++skipped;
                continue;
            }
            TrialRecord t;
            t.workload = workload;
            t.plans = specs[trial].plans;
            t.outcome = outcome;
            jsonFieldU64(line, "planned", t.faultsPlanned);
            jsonFieldU64(line, "injected", t.faultsInjected);
            jsonFieldU64(line, "detected", t.faultsDetected);
            uint64_t degraded = 0;
            jsonFieldU64(line, "degraded", degraded);
            t.degraded = degraded != 0;
            jsonFieldU64(line, "latency_samples", t.latencySamples);
            jsonFieldU64(line, "latency_total", t.latencyTotal);
            jsonFieldU64(line, "latency_max", t.latencyMax);
            std::string latHist;
            if (jsonFieldString(line, "lat_hist", latHist))
                decodeLatencyHistograms(latHist, t.latencyByTarget);
            jsonFieldU64(line, "cycles", t.cycles);
            // A journaled trial only counts for the backend it ran
            // under: resuming a replay campaign over a slipstream
            // journal must re-run, not adopt, those trials. Lines
            // without the field (pre-backend journals) are only
            // sound for the slipstream (native) configuration.
            const char *cfgBackend =
                detectBackendName(cfg.params.detect.kind);
            std::string backend;
            if (jsonFieldString(line, "backend", backend)) {
                if (backend != cfgBackend) {
                    ++skipped;
                    continue;
                }
            } else if (cfg.params.detect.kind !=
                       DetectBackendKind::Slipstream) {
                ++skipped;
                continue;
            }
            t.detectBackend = cfgBackend;
            // Same contract for the A-stream policy tag: a journaled
            // trial only counts for the policy it ran under, and
            // lines without the field (pre-policy journals) are only
            // sound for the paper's default (ir) configuration.
            const char *cfgPolicy =
                aStreamPolicyName(cfg.params.aPolicy.kind);
            std::string policy;
            if (jsonFieldString(line, "policy", policy)) {
                if (policy != cfgPolicy) {
                    ++skipped;
                    continue;
                }
            } else if (cfg.params.aPolicy.kind !=
                       AStreamPolicyKind::IRRemoval) {
                ++skipped;
                continue;
            }
            t.aStreamPolicy = cfgPolicy;
            jsonFieldU64(line, "checked", t.detectChecked);
            jsonFieldU64(line, "det_mismatch", t.detectMismatches);
            jsonFieldU64(line, "det_external", t.detectExternal);
            jsonFieldU64(line, "det_replays", t.detectReplays);
            jsonFieldU64(line, "det_replayed", t.detectReplayedInsts);
            jsonFieldU64(line, "det_overhead", t.detectOverhead);
            t.error = std::move(error);
            // Optional worker-death triage (absent on healthy lines
            // and on journals from before fork isolation existed).
            uint64_t sig = 0, wexit = 0;
            if (jsonFieldU64(line, "signal", sig))
                t.crashSignal = int(sig);
            if (jsonFieldU64(line, "wexit", wexit))
                t.crashExit = int(wexit);
            jsonFieldString(line, "crash_phase", t.crashPhase);
            if (!done[trial])
                ++used;
            done[trial] = std::move(t);
        }
        if (skipped)
            SLIP_WARN("campaign journal '", journalPath, "': skipped ",
                      skipped, " unusable line(s) while resuming '",
                      cfg.name, "'");
        if (used)
            SLIP_INFORM("resuming campaign '", cfg.name, "': ", used,
                        " of ", specs.size(),
                        " trials restored from ", journalPath);
    }

    const bool fsyncEach =
        cfg.journalFsync >= 0
            ? cfg.journalFsync != 0
            : envFlag("SLIPSTREAM_JOURNAL_FSYNC", true);
    TrialJournal journal(journalPath, resume, fsyncEach);

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
            // Bound quarantine growth: a pathological campaign (every
            // trial poisoned) must not fill the disk with repro
            // bundles. At the cap, skip loudly — existing bundles are
            // never pruned; they are findings.
            const uint64_t maxBundles =
                envU64("SLIPSTREAM_QUARANTINE_MAX", 32);
            uint64_t existing = 0;
            if (std::filesystem::is_directory(cfg.quarantineDir))
                for ([[maybe_unused]] const auto &entry :
                     std::filesystem::directory_iterator(
                         cfg.quarantineDir))
                    ++existing;
            if (existing >= maxBundles) {
                SLIP_WARN("quarantine '", cfg.quarantineDir,
                          "' is at its cap (", existing, " of ",
                          maxBundles, " bundles, SLIPSTREAM_QUARANTINE"
                          "_MAX); NOT writing a bundle for trial ",
                          i, " — raise the cap or clear the directory");
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
    // isolation modes. At most workers-1 finished trials are held
    // back awaiting a predecessor; a kill in that window re-runs them
    // on resume instead of journaling them out of order. Trials
    // restored by resume are already in the journal and only advance
    // the cursor.
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
                journal.append(cfg, nextToJournal,
                               *done[nextToJournal]);
                journaled[nextToJournal] = true;
            }
            ++nextToJournal;
        }
    });

    FaultCampaignResult result;
    result.perWorkload.reserve(names.size());
    for (const std::string &name : names)
        result.perWorkload.emplace_back(name, CampaignTally{});
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

namespace
{

void
tallyJson(std::ostringstream &out, const CampaignTally &t,
          const char *indent)
{
    out << indent << "\"trials\": " << t.trials << ",\n"
        << indent << "\"faults\": {\"planned\": " << t.faultsPlanned
        << ", \"injected\": " << t.faultsInjected
        << ", \"detected\": " << t.faultsDetected << "},\n"
        << indent << "\"outcomes\": {";
    for (unsigned o = 0; o < kNumTrialOutcomes; ++o) {
        if (o)
            out << ", ";
        out << "\"" << trialOutcomeName(TrialOutcome(o))
            << "\": " << t.byOutcome[o];
    }
    out << "},\n"
        << indent << "\"degraded_runs\": " << t.degradedRuns << ",\n"
        << indent << "\"cycles_total\": " << t.cyclesTotal << ",\n"
        << indent << "\"detect\": {\"checked\": " << t.detectChecked
        << ", \"mismatches\": " << t.detectMismatches
        << ", \"external\": " << t.detectExternal
        << ", \"overhead_cycles\": " << t.detectOverhead << "},\n"
        << indent << "\"detect_overhead_histogram\": {";
    // Per-trial modeled-overhead distribution (log2 buckets, non-zero
    // trials only) — zero by construction for the native backend.
    bool firstOverhead = true;
    for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
        if (!t.overheadHist.bucket(b))
            continue;
        if (!firstOverhead)
            out << ", ";
        firstOverhead = false;
        out << "\"" << Histogram::bucketLo(b) << "-"
            << Histogram::bucketHi(b)
            << "\": " << t.overheadHist.bucket(b);
    }
    out << "},\n";
    // Worker-death histogram appears only when a worker actually died,
    // so healthy campaigns report byte-identically across isolation
    // modes (and against reports from before fork isolation existed).
    if (!t.crashBySignal.empty()) {
        out << indent << "\"worker_crashes\": {";
        bool firstCrash = true;
        for (const auto &[cause, n] : t.crashBySignal) {
            if (!firstCrash)
                out << ", ";
            firstCrash = false;
            out << "\"" << cause << "\": " << n;
        }
        out << "},\n";
    }
    out << indent << "\"detection_latency_cycles\": {\"samples\": "
        << t.latencySamples << ", \"avg\": " << t.avgLatency()
        << ", \"max\": " << t.latencyMax << "},\n"
        << indent << "\"detection_latency_histogram\": {";
    // Log2-bucketed latency distribution per fault target: bucket
    // counts only (keys are "lo-hi" cycle ranges), so live and
    // journal-resumed campaigns render identically.
    bool firstTarget = true;
    for (const auto &[target, h] : t.latencyByTarget) {
        if (h.count() == 0)
            continue;
        if (!firstTarget)
            out << ", ";
        firstTarget = false;
        out << "\"" << target << "\": {";
        bool firstBucket = true;
        for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
            if (!h.bucket(b))
                continue;
            if (!firstBucket)
                out << ", ";
            firstBucket = false;
            out << "\"" << Histogram::bucketLo(b) << "-"
                << Histogram::bucketHi(b) << "\": " << h.bucket(b);
        }
        out << "}";
    }
    out << "}";
}

} // namespace

std::string
campaignJson(const FaultCampaignConfig &cfg,
             const FaultCampaignResult &result)
{
    const std::vector<FaultTarget> targets =
        !cfg.targets.empty() ? cfg.targets
                             : defaultCampaignTargets(cfg.reliableMode);

    std::ostringstream out;
    out << "{\n"
        << "  \"report_version\": " << kFaultReportVersion << ",\n"
        << "  \"campaign\": \"" << cfg.name << "\",\n"
        << "  \"mode\": \""
        << (cfg.reliableMode ? "reliable" : "slipstream") << "\",\n"
        << "  \"detect_backend\": \""
        << detectBackendName(cfg.params.detect.kind) << "\",\n"
        << "  \"a_stream_policy\": \""
        << aStreamPolicyName(cfg.params.aPolicy.kind) << "\",\n"
        << "  \"size\": \"" << sizeName(cfg.size) << "\",\n"
        << "  \"seed\": " << cfg.seed << ",\n"
        << "  \"trials_per_workload\": " << cfg.trialsPerWorkload
        << ",\n"
        << "  \"faults_per_trial\": [" << cfg.minFaultsPerTrial << ", "
        << cfg.maxFaultsPerTrial << "],\n"
        << "  \"targets\": [";
    for (size_t i = 0; i < targets.size(); ++i) {
        if (i)
            out << ", ";
        out << "\"" << faultTargetName(targets[i]) << "\"";
    }
    out << "],\n";
    tallyJson(out, result.total, "  ");
    out << ",\n  \"workloads\": [\n";
    for (size_t i = 0; i < result.perWorkload.size(); ++i) {
        const auto &[name, tally] = result.perWorkload[i];
        out << "    {\n      \"name\": \"" << name << "\",\n";
        tallyJson(out, tally, "      ");
        out << "\n    }" << (i + 1 < result.perWorkload.size() ? "," : "")
            << "\n";
    }
    out << "  ]\n}";
    return out.str();
}

void
writeFaultReport(const std::vector<std::string> &campaignObjects,
                 const std::string &path)
{
    // Reporting must never take down a campaign: every failure path
    // warns (with the path and the reason) and returns.
    std::string target = path;
    try {
        if (target.empty()) {
            if (const char *env =
                    std::getenv("SLIPSTREAM_FAULT_JSON"))
                target = env;
            else
                target = "results/fault_campaign.json";
        }
        const std::filesystem::path dir =
            std::filesystem::path(target).parent_path();
        if (!dir.empty())
            std::filesystem::create_directories(dir);

        // Write a temp sibling, then atomically rename into place:
        // no kill point leaves a truncated fault_campaign.json.
        const std::string tmp = target + ".tmp";
        {
            std::ofstream out(tmp, std::ios::trunc);
            if (!out) {
                SLIP_WARN("cannot open fault report temp file '", tmp,
                          "' for writing; report not written");
                return;
            }
            out << "[\n";
            for (size_t i = 0; i < campaignObjects.size(); ++i)
                out << campaignObjects[i]
                    << (i + 1 < campaignObjects.size() ? "," : "")
                    << "\n";
            out << "]\n";
            out.flush();
            if (!out) {
                SLIP_WARN("write to fault report temp file '", tmp,
                          "' failed; report not written");
                std::remove(tmp.c_str());
                return;
            }
        }
        std::filesystem::rename(tmp, target);
    } catch (const std::exception &e) {
        SLIP_WARN("failed to write fault report '", target,
                  "': ", e.what());
    } catch (...) {
        SLIP_WARN("failed to write fault report '", target,
                  "': unknown error");
    }
}

} // namespace slip
