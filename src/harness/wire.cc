#include "harness/wire.hh"

#include <cerrno>
#include <cstring>
#include <unistd.h>

#include "common/logging.hh"
#include "harness/sim_runner.hh"

namespace slip::wire
{

// ---------------------------------------------------------------------
// Encoder.
// ---------------------------------------------------------------------

void
Encoder::putU16(uint16_t v)
{
    putU8(uint8_t(v));
    putU8(uint8_t(v >> 8));
}

void
Encoder::putU32(uint32_t v)
{
    putU16(uint16_t(v));
    putU16(uint16_t(v >> 16));
}

void
Encoder::putU64(uint64_t v)
{
    putU32(uint32_t(v));
    putU32(uint32_t(v >> 32));
}

void
Encoder::putDouble(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Encoder::putString(const std::string &s)
{
    putU32(uint32_t(s.size()));
    buf_.append(s);
}

// ---------------------------------------------------------------------
// Decoder.
// ---------------------------------------------------------------------

void
Decoder::need(size_t n) const
{
    if (buf_.size() - pos_ < n)
        SLIP_FATAL("wire: truncated payload (need ", n,
                   " bytes at offset ", pos_, " of ", buf_.size(), ")");
}

uint8_t
Decoder::getU8()
{
    need(1);
    return uint8_t(buf_[pos_++]);
}

uint16_t
Decoder::getU16()
{
    const uint16_t lo = getU8();
    const uint16_t hi = getU8();
    return uint16_t(lo | (hi << 8));
}

uint32_t
Decoder::getU32()
{
    const uint32_t lo = getU16();
    const uint32_t hi = getU16();
    return lo | (hi << 16);
}

uint64_t
Decoder::getU64()
{
    const uint64_t lo = getU32();
    const uint64_t hi = getU32();
    return lo | (hi << 32);
}

double
Decoder::getDouble()
{
    const uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Decoder::getString()
{
    const uint32_t n = getU32();
    need(n);
    std::string s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
}

// ---------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------

namespace
{

bool
writeAll(int fd, const void *data, size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        const ssize_t n = write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= size_t(n);
    }
    return true;
}

/** 1 = full read, 0 = clean EOF before the first byte, -1 = torn. */
int
readAll(int fd, void *data, size_t len)
{
    char *p = static_cast<char *>(data);
    size_t have = 0;
    while (have < len) {
        const ssize_t n = read(fd, p + have, len - have);
        if (n > 0) {
            have += size_t(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n == 0)
            return have == 0 ? 0 : -1;
        return -1;
    }
    return 1;
}

struct FrameHeader
{
    uint32_t length; // payload bytes following the header
    uint32_t magic;
    uint16_t version;
    uint8_t type;
    uint8_t pad;
};

static_assert(sizeof(FrameHeader) == 12, "frame header is wire format");

// Frames carry one trial result at most; anything bigger than this is
// a corrupt length field, not a real message.
constexpr uint32_t kMaxFrame = 64u << 20;

void
appendFrameVersion(std::string &frames, MsgType type, uint16_t version,
                   const std::string &payload)
{
    FrameHeader hdr;
    hdr.length = uint32_t(payload.size());
    hdr.magic = kMagic;
    hdr.version = version;
    hdr.type = uint8_t(type);
    hdr.pad = 0;
    frames.append(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
    frames += payload;
}

} // namespace

bool
writeFrame(int fd, MsgType type, const std::string &payload)
{
    return writeFrameVersion(fd, type, kVersion, payload);
}

void
appendFrame(std::string &frames, MsgType type, const std::string &payload)
{
    appendFrameVersion(frames, type, kVersion, payload);
}

bool
writeFrames(int fd, const std::string &frames)
{
    return writeAll(fd, frames.data(), frames.size());
}

bool
writeFrameVersion(int fd, MsgType type, uint16_t version,
                  const std::string &payload)
{
    std::string frame;
    frame.reserve(sizeof(FrameHeader) + payload.size());
    appendFrameVersion(frame, type, version, payload);
    return writeFrames(fd, frame);
}

ReadResult
readFrame(int fd, MsgType &type, std::string &payload)
{
    FrameHeader hdr;
    const int got = readAll(fd, &hdr, sizeof(hdr));
    if (got == 0)
        return ReadResult::Eof;
    if (got < 0)
        return ReadResult::Error;
    if (hdr.magic != kMagic || hdr.version != kVersion ||
        hdr.length > kMaxFrame) {
        SLIP_WARN("wire: bad frame header (magic 0x", std::hex, hdr.magic,
                  std::dec, " version ", hdr.version, " length ",
                  hdr.length, ")");
        return ReadResult::Error;
    }
    payload.resize(hdr.length);
    if (hdr.length > 0 && readAll(fd, payload.data(), hdr.length) != 1)
        return ReadResult::Error;
    type = MsgType(hdr.type);
    return ReadResult::Ok;
}

ReadResult
readFrameInfo(int fd, FrameInfo &frame)
{
    FrameHeader hdr;
    const int got = readAll(fd, &hdr, sizeof(hdr));
    if (got == 0)
        return ReadResult::Eof;
    if (got < 0)
        return ReadResult::Error;
    // Version deliberately unchecked (the caller negotiates); a bad
    // magic or an insane length is still garbage, not a peer.
    if (hdr.magic != kMagic || hdr.length > kMaxFrame) {
        SLIP_WARN("wire: bad frame header (magic 0x", std::hex, hdr.magic,
                  std::dec, " length ", hdr.length, ")");
        return ReadResult::Error;
    }
    frame.payload.resize(hdr.length);
    if (hdr.length > 0 &&
        readAll(fd, frame.payload.data(), hdr.length) != 1)
        return ReadResult::Error;
    frame.type = MsgType(hdr.type);
    frame.version = hdr.version;
    return ReadResult::Ok;
}

// ---------------------------------------------------------------------
// Harness codecs.
// ---------------------------------------------------------------------

namespace
{

void
encodeFaultRecord(Encoder &enc, const FaultRecord &r)
{
    enc.putU8(uint8_t(r.plan.target));
    enc.putU64(r.plan.dynIndex);
    enc.putU32(r.plan.bit);
    enc.putU8(r.plan.reg);
    enc.putBool(r.fired);
    enc.putBool(r.injected);
    enc.putBool(r.targetWasRedundant);
    enc.putBool(r.detected);
    enc.putU64(r.pc);
    enc.putU64(r.injectCycle);
    enc.putU64(r.detectCycle);
}

FaultRecord
decodeFaultRecord(Decoder &dec)
{
    FaultRecord r;
    r.plan.target = FaultTarget(dec.getU8());
    r.plan.dynIndex = dec.getU64();
    r.plan.bit = dec.getU32();
    r.plan.reg = dec.getU8();
    r.fired = dec.getBool();
    r.injected = dec.getBool();
    r.targetWasRedundant = dec.getBool();
    r.detected = dec.getBool();
    r.pc = dec.getU64();
    r.injectCycle = dec.getU64();
    r.detectCycle = dec.getU64();
    return r;
}

void
encodeFaultOutcome(Encoder &enc, const FaultOutcome &o)
{
    enc.putBool(o.injected);
    enc.putBool(o.targetWasRedundant);
    enc.putBool(o.detected);
    enc.putU64(o.pc);
    enc.putU32(o.planned);
    enc.putU32(o.numInjected);
    enc.putU32(o.numDetected);
    enc.putU32(uint32_t(o.records.size()));
    for (const FaultRecord &r : o.records)
        encodeFaultRecord(enc, r);
}

FaultOutcome
decodeFaultOutcome(Decoder &dec)
{
    FaultOutcome o;
    o.injected = dec.getBool();
    o.targetWasRedundant = dec.getBool();
    o.detected = dec.getBool();
    o.pc = dec.getU64();
    o.planned = dec.getU32();
    o.numInjected = dec.getU32();
    o.numDetected = dec.getU32();
    const uint32_t n = dec.getU32();
    o.records.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        o.records.push_back(decodeFaultRecord(dec));
    return o;
}

} // namespace

void
encodeRunMetrics(Encoder &enc, const RunMetrics &m)
{
    enc.putString(m.model);
    enc.putU64(m.cycles);
    enc.putU64(m.retired);
    enc.putDouble(m.ipc);
    enc.putDouble(m.branchMispPer1000);
    enc.putBool(m.outputCorrect);
    enc.putU64(m.outputBytes);

    enc.putDouble(m.removedFraction);
    enc.putU32(uint32_t(m.removedByReason.size()));
    for (const auto &[reason, count] : m.removedByReason) {
        enc.putString(reason);
        enc.putU64(count);
    }
    enc.putU32(uint32_t(m.removedByReasonMask.size()));
    for (uint64_t count : m.removedByReasonMask)
        enc.putU64(count);
    enc.putDouble(m.irMispPer1000);
    enc.putDouble(m.avgIRPenalty);
    enc.putU64(m.recoveries);

    enc.putBool(m.cancelled);
    enc.putBool(m.hung);
    enc.putU32(m.watchdogTrips);
    enc.putBool(m.degraded);
    enc.putU64(m.degradedAtCycle);
    enc.putU64(m.rOnlyRetired);

    enc.putString(m.detectBackend);
    enc.putU64(m.detectChecked);
    enc.putU64(m.detectMismatches);
    enc.putU64(m.detectExternal);
    enc.putU64(m.detectReplays);
    enc.putU64(m.detectReplayedInsts);
    enc.putU64(m.detectOverheadCycles);

    encodeFaultOutcome(enc, m.faultOutcome);
}

RunMetrics
decodeRunMetrics(Decoder &dec)
{
    RunMetrics m;
    m.model = dec.getString();
    m.cycles = dec.getU64();
    m.retired = dec.getU64();
    m.ipc = dec.getDouble();
    m.branchMispPer1000 = dec.getDouble();
    m.outputCorrect = dec.getBool();
    m.outputBytes = dec.getU64();

    m.removedFraction = dec.getDouble();
    const uint32_t reasons = dec.getU32();
    for (uint32_t i = 0; i < reasons; ++i) {
        std::string reason = dec.getString();
        const uint64_t count = dec.getU64();
        m.removedByReason.emplace(std::move(reason), count);
    }
    const uint32_t masks = dec.getU32();
    if (masks != m.removedByReasonMask.size())
        SLIP_FATAL("wire: removedByReasonMask arity mismatch (", masks,
                   " vs ", m.removedByReasonMask.size(),
                   ") — mixed-version worker?");
    for (uint64_t &count : m.removedByReasonMask)
        count = dec.getU64();
    m.irMispPer1000 = dec.getDouble();
    m.avgIRPenalty = dec.getDouble();
    m.recoveries = dec.getU64();

    m.cancelled = dec.getBool();
    m.hung = dec.getBool();
    m.watchdogTrips = dec.getU32();
    m.degraded = dec.getBool();
    m.degradedAtCycle = dec.getU64();
    m.rOnlyRetired = dec.getU64();

    m.detectBackend = dec.getString();
    m.detectChecked = dec.getU64();
    m.detectMismatches = dec.getU64();
    m.detectExternal = dec.getU64();
    m.detectReplays = dec.getU64();
    m.detectReplayedInsts = dec.getU64();
    m.detectOverheadCycles = dec.getU64();

    m.faultOutcome = decodeFaultOutcome(dec);
    return m;
}

void
encodeJobOutcome(Encoder &enc, const JobOutcome &o)
{
    enc.putU8(uint8_t(o.status));
    encodeRunMetrics(enc, o.metrics);
    enc.putU8(uint8_t(o.errorKind));
    enc.putString(o.errorMessage);
    // Crash triage: filled by the supervisor, not the worker (a
    // worker never reports its own death), but carried so the codec
    // round-trips the whole struct.
    enc.putI32(o.termSignal);
    enc.putI32(o.termExitCode);
    enc.putU64(o.crashAddr);
    enc.putU8(uint8_t(o.crashPhase));
    enc.putBool(o.poisoned);
    enc.putU32(o.attempts);
}

JobOutcome
decodeJobOutcome(Decoder &dec)
{
    JobOutcome o;
    o.status = JobOutcome::Status(dec.getU8());
    o.metrics = decodeRunMetrics(dec);
    o.errorKind = ErrorKind(dec.getU8());
    o.errorMessage = dec.getString();
    o.termSignal = dec.getI32();
    o.termExitCode = dec.getI32();
    o.crashAddr = dec.getU64();
    o.crashPhase = TrialPhase(dec.getU8());
    o.poisoned = dec.getBool();
    o.attempts = dec.getU32();
    // o.exception stays null: exceptions don't cross processes. The
    // kind + message carry what the supervisor needs.
    return o;
}

} // namespace slip::wire
