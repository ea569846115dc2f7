#include "obs/trace_session.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace slip::obs
{

thread_local ThreadSink tlsSink;

namespace
{

thread_local unsigned tlsTrialAttempt = 1;

} // namespace

// ---------------------------------------------------------------------
// Category / name tables
// ---------------------------------------------------------------------

const char *
categoryName(Category category)
{
    switch (category) {
      case Category::DelayBuffer:
        return "delay_buffer";
      case Category::IRPredictor:
        return "ir_predictor";
      case Category::Removal:
        return "removal";
      case Category::Recovery:
        return "recovery";
      case Category::Core:
        return "core";
      case Category::Trial:
        return "trial";
      case Category::Fault:
        return "fault";
      case Category::Worker:
        return "worker";
      case Category::Serve:
        return "serve";
    }
    return "?";
}

unsigned
categoryBit(Category category)
{
    const uint32_t v = static_cast<uint32_t>(category);
    unsigned bit = 0;
    while ((v >> bit) > 1)
        ++bit;
    return bit;
}

uint32_t
parseCategoryMask(const std::string &spec)
{
    if (spec.empty() || spec == "0" || spec == "none" ||
        spec == "off")
        return 0;
    if (spec == "all" || spec == "1" || spec == "on")
        return kAllCategories;

    uint32_t mask = 0;
    std::istringstream in(spec);
    std::string token;
    while (std::getline(in, token, ',')) {
        if (token.empty())
            continue;
        bool known = false;
        for (unsigned bit = 0; bit < kNumCategories; ++bit) {
            const Category c = Category(1u << bit);
            if (token == categoryName(c)) {
                mask |= static_cast<uint32_t>(c);
                known = true;
                break;
            }
        }
        if (!known)
            SLIP_WARN("unknown trace category '", token,
                      "' (want ", categoryMaskNames(kAllCategories),
                      " or 'all'); skipping it");
    }
    return mask;
}

std::string
categoryMaskNames(uint32_t mask)
{
    std::string out;
    for (unsigned bit = 0; bit < kNumCategories; ++bit) {
        if (!(mask & (1u << bit)))
            continue;
        if (!out.empty())
            out += ",";
        out += categoryName(Category(1u << bit));
    }
    return out;
}

const char *
eventNameString(Name name)
{
    switch (name) {
      case Name::ControlOccupancy:
        return "control_occupancy";
      case Name::DataOccupancy:
        return "data_occupancy";
      case Name::DelayBufferFlush:
        return "delay_buffer_flush";
      case Name::IRLookupConfident:
        return "ir_lookup_confident";
      case Name::IRLookupBelowThreshold:
        return "ir_lookup_below_threshold";
      case Name::IRConfidenceReset:
        return "ir_confidence_reset";
      case Name::RemovalApplied:
        return "removal_applied";
      case Name::RecoverySpan:
        return "recovery";
      case Name::WatchdogTrip:
        return "watchdog_trip";
      case Name::DegradeToROnly:
        return "degrade_to_r_only";
      case Name::RecoveriesTotal:
        return "recoveries_total";
      case Name::CoreFlush:
        return "core_flush";
      case Name::CoreRetired:
        return "core_retired";
      case Name::CoreFetched:
        return "core_fetched";
      case Name::TrialSpan:
        return "trial";
      case Name::TrialOutcome:
        return "trial_outcome";
      case Name::TrialTimeout:
        return "trial_timeout";
      case Name::FaultInjected:
        return "fault_injected";
      case Name::FaultDetected:
        return "fault_detected";
      case Name::WorkerSpawn:
        return "worker_spawn";
      case Name::WorkerExit:
        return "worker_exit";
      case Name::WorkerCrash:
        return "worker_crash";
      case Name::JobRedispatch:
        return "job_redispatch";
      case Name::JobQuarantined:
        return "job_quarantined";
      case Name::ClientConnect:
        return "client_connect";
      case Name::ClientDisconnect:
        return "client_disconnect";
      case Name::BatchSpan:
        return "batch";
      case Name::BatchCancelled:
        return "batch_cancelled";
      case Name::CacheHit:
        return "cache_hit";
      case Name::CacheMiss:
        return "cache_miss";
      case Name::CacheStore:
        return "cache_store";
      case Name::CacheEvict:
        return "cache_evict";
      case Name::DrainSpan:
        return "drain";
    }
    return "?";
}

// ---------------------------------------------------------------------
// EventRing
// ---------------------------------------------------------------------

namespace
{

size_t
roundUpPow2(size_t n)
{
    size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

EventRing::EventRing(size_t capacity)
    : slots_(roundUpPow2(std::max<size_t>(capacity, 8)))
{
}

void
EventRing::push(const TraceEvent &event)
{
    const uint64_t h = head_.load(std::memory_order_relaxed);
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    if (h - t == slots_.size()) {
        // Full: sacrifice the oldest event, visibly. The producer owns
        // both indices until drain() (the trial has quiesced by then).
        tail_.store(t + 1, std::memory_order_relaxed);
        dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    slots_[h & (slots_.size() - 1)] = event;
    head_.store(h + 1, std::memory_order_release);
}

std::vector<TraceEvent>
EventRing::drain()
{
    const uint64_t h = head_.load(std::memory_order_acquire);
    uint64_t t = tail_.load(std::memory_order_relaxed);
    std::vector<TraceEvent> out;
    out.reserve(size_t(h - t));
    for (; t != h; ++t)
        out.push_back(slots_[t & (slots_.size() - 1)]);
    tail_.store(t, std::memory_order_release);
    return out;
}

size_t
EventRing::size() const
{
    return size_t(head_.load(std::memory_order_acquire) -
                  tail_.load(std::memory_order_acquire));
}

// ---------------------------------------------------------------------
// TraceSession
// ---------------------------------------------------------------------

TraceSession::TraceSession()
{
    TraceConfig cfg;
    if (const char *env = std::getenv("SLIPSTREAM_TRACE"))
        cfg.mask = parseCategoryMask(env);
    if (const char *env = std::getenv("SLIPSTREAM_TRACE_DIR"))
        if (*env)
            cfg.dir = env;
    cfg.ringCapacity =
        size_t(envU64("SLIPSTREAM_TRACE_BUFFER", cfg.ringCapacity));
    configure(cfg);
}

TraceSession &
TraceSession::global()
{
    static TraceSession session;
    return session;
}

void
TraceSession::configure(const TraceConfig &config)
{
    std::lock_guard<std::mutex> lock(mu_);
    config_ = config;
    mask_.store(config.mask, std::memory_order_relaxed);
}

TraceConfig
TraceSession::config() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return config_;
}

namespace
{

/** Trial name → safe file stem ('/' and friends become '_'). */
std::string
sanitizeStem(const std::string &name)
{
    std::string out = name.empty() ? "trial" : name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '-' || c == '_';
        if (!ok)
            c = '_';
    }
    return out;
}

} // namespace

std::string
TraceSession::writeTrial(const std::string &trial,
                         const std::vector<TraceEvent> &events,
                         uint64_t droppedOldest)
{
    const std::string dir = config().dir;
    const std::string path =
        dir + "/" + sanitizeStem(trial) + ".trace.json";
    try {
        if (!dir.empty())
            std::filesystem::create_directories(dir);
    } catch (const std::exception &e) {
        SLIP_WARN("cannot create trace directory '", dir,
                  "' for trial '", trial, "': ", e.what(),
                  "; trace not written");
        return "";
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        SLIP_WARN("cannot open trace file '", path,
                  "' for writing; trace for trial '", trial,
                  "' not written");
        return "";
    }
    writeChromeTrace(out, trial, events, droppedOldest);
    out.flush();
    if (!out) {
        SLIP_WARN("write to trace file '", path,
                  "' failed; trace may be truncated");
        return "";
    }
    return path;
}

// ---------------------------------------------------------------------
// TrialTrace
// ---------------------------------------------------------------------

TrialTrace::TrialTrace(std::string name, bool writeFile)
    : name_(std::move(name)), writeFile_(writeFile)
{
    TraceSession &session = TraceSession::global();
    const uint32_t mask = session.mask();
    if (mask == 0)
        return; // inert scope: tracing is off

    ring_ = std::make_unique<EventRing>(session.config().ringCapacity);

    prevRing_ = tlsSink.ring;
    prevMask_ = tlsSink.mask;
    prevSeq_ = tlsSink.seq;
    prevCycle_ = tlsSink.cycle;

    tlsSink.ring = ring_.get();
    tlsSink.mask = mask;
    tlsSink.seq = 0;
    tlsSink.cycle = 0;

    emitEvent(Category::Trial, Name::TrialSpan, Phase::Begin,
              trialAttempt(), 0);
}

std::vector<TraceEvent>
TrialTrace::take()
{
    if (!ring_)
        return {};
    taken_ = true;
    std::vector<TraceEvent> events = ring_->drain();
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.cycle != b.cycle
                                    ? a.cycle < b.cycle
                                    : a.seq < b.seq;
                     });
    return events;
}

TrialTrace::~TrialTrace()
{
    if (!ring_)
        return;

    emitEvent(Category::Trial, Name::TrialSpan, Phase::End,
              trialAttempt(), 0);

    // Restore the outer sink before any I/O.
    tlsSink.ring = prevRing_;
    tlsSink.mask = prevMask_;
    tlsSink.seq = prevSeq_;
    tlsSink.cycle = prevCycle_;

    if (taken_ || !writeFile_)
        return;

    const uint64_t dropped = ring_->droppedOldest();
    std::vector<TraceEvent> events = ring_->drain();
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.cycle != b.cycle
                                    ? a.cycle < b.cycle
                                    : a.seq < b.seq;
                     });
    TraceSession::global().writeTrial(name_, events, dropped);
}

// ---------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------

void
emitEvent(Category category, Name name, Phase phase, uint64_t arg0,
          uint64_t arg1)
{
    emitEventAt(category, name, phase, tlsSink.cycle, arg0, arg1);
}

void
emitEventAt(Category category, Name name, Phase phase, uint64_t cycle,
            uint64_t arg0, uint64_t arg1)
{
    if (!tlsSink.ring)
        return;
    TraceEvent e;
    e.cycle = cycle;
    e.arg0 = arg0;
    e.arg1 = arg1;
    e.seq = tlsSink.seq++;
    e.name = name;
    e.category = uint8_t(categoryBit(category));
    e.phase = phase;
    tlsSink.ring->push(e);
}

void
setTrialAttempt(unsigned attempt)
{
    tlsTrialAttempt = attempt > 0 ? attempt : 1;
}

unsigned
trialAttempt()
{
    return tlsTrialAttempt;
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

namespace
{

char
phaseChar(Phase phase)
{
    switch (phase) {
      case Phase::Begin:
        return 'B';
      case Phase::End:
        return 'E';
      case Phase::Instant:
        return 'i';
      case Phase::Counter:
        return 'C';
    }
    return 'i';
}

} // namespace

void
writeChromeTrace(std::ostream &os, const std::string &trial,
                 const std::vector<TraceEvent> &events,
                 uint64_t droppedOldest)
{
    // One category per Chrome "thread" so Perfetto renders one track
    // per instrumented layer. ts is the simulation cycle (Perfetto
    // displays it as microseconds; the unit label is cosmetic).
    os << "{\n\"otherData\": {\"trial\": \"" << jsonEscape(trial)
       << "\", \"clock\": \"sim_cycles\", \"event_count\": "
       << events.size() << ", \"dropped_oldest_events\": "
       << droppedOldest << "},\n";
    os << "\"traceEvents\": [\n";

    bool first = true;
    const auto comma = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"name\": \""
       << jsonEscape(trial) << "\"}}";
    first = false;
    for (unsigned bit = 0; bit < kNumCategories; ++bit) {
        comma();
        os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": "
           << bit + 1 << ", \"args\": {\"name\": \""
           << categoryName(Category(1u << bit)) << "\"}}";
    }

    for (const TraceEvent &e : events) {
        comma();
        const Category cat = Category(1u << e.category);
        const char ph = phaseChar(e.phase);
        os << "{\"name\": \"" << eventNameString(e.name)
           << "\", \"cat\": \"" << categoryName(cat)
           << "\", \"ph\": \"" << ph << "\", \"ts\": " << e.cycle
           << ", \"pid\": 1, \"tid\": " << unsigned(e.category) + 1;
        if (e.phase == Phase::Counter) {
            os << ", \"args\": {\"value\": " << e.arg0 << "}";
        } else {
            if (e.phase == Phase::Instant)
                os << ", \"s\": \"t\"";
            os << ", \"args\": {\"a0\": " << e.arg0
               << ", \"a1\": " << e.arg1 << ", \"seq\": " << e.seq
               << "}";
        }
        os << "}";
    }

    // Footer: the overflow count rides in the event stream itself so
    // a consumer that only reads traceEvents still sees it.
    const uint64_t lastCycle =
        events.empty() ? 0 : events.back().cycle;
    comma();
    os << "{\"name\": \"trace_footer\", \"cat\": \"trial\", \"ph\": "
          "\"i\", \"s\": \"g\", \"ts\": "
       << lastCycle << ", \"pid\": 1, \"tid\": "
       << categoryBit(Category::Trial) + 1
       << ", \"args\": {\"dropped_oldest\": " << droppedOldest
       << ", \"events\": " << events.size() << "}}";

    os << "\n]\n}\n";
}

} // namespace slip::obs
