#include "serve/serve_proto.hh"

#include "common/logging.hh"
#include "detect/detect_params.hh"

namespace slip::serve
{

const char *
batchKindName(BatchKind kind)
{
    switch (kind) {
      case BatchKind::Campaign:
        return "campaign";
      case BatchKind::Fuzz:
        return "fuzz";
      case BatchKind::Bench:
        return "bench";
    }
    return "?";
}

const char *
batchStatusName(BatchStatus status)
{
    switch (status) {
      case BatchStatus::Ok:
        return "ok";
      case BatchStatus::Cancelled:
        return "cancelled";
      case BatchStatus::Rejected:
        return "rejected";
      case BatchStatus::Error:
        return "error";
    }
    return "?";
}

FaultCampaignConfig
BatchRequest::toCampaignConfig() const
{
    FaultCampaignConfig cfg;
    cfg.name = name;
    cfg.workloads = workloads;
    cfg.size = size;
    cfg.trialsPerWorkload = trialsPerWorkload;
    cfg.minFaultsPerTrial = minFaultsPerTrial;
    cfg.maxFaultsPerTrial = maxFaultsPerTrial;
    cfg.seed = seed;
    cfg.reliableMode = reliableMode;
    cfg.targets = targets;
    cfg.params.detect = detect;
    cfg.params.aPolicy = policy;
    if (reliableMode)
        cfg.params.irPred.enabled = false;
    cfg.cycleCapPerInst = cycleCapPerInst;
    return cfg;
}

void
encodeBatchRequest(wire::Encoder &enc, const BatchRequest &b)
{
    enc.putU8(uint8_t(b.kind));
    enc.putU64(b.id);
    enc.putString(b.name);
    enc.putU32(uint32_t(b.workloads.size()));
    for (const std::string &w : b.workloads)
        enc.putString(w);
    enc.putU8(uint8_t(b.size));
    enc.putU32(b.trialsPerWorkload);
    enc.putU32(b.minFaultsPerTrial);
    enc.putU32(b.maxFaultsPerTrial);
    enc.putU64(b.seed);
    enc.putBool(b.reliableMode);
    enc.putU32(uint32_t(b.targets.size()));
    for (FaultTarget t : b.targets)
        enc.putU8(uint8_t(t));
    enc.putU8(uint8_t(b.detect.kind));
    enc.putU64(b.detect.replayWindow);
    enc.putU32(b.detect.replayWidth);
    enc.putU32(b.detect.checkerBandwidth);
    enc.putU32(b.detect.checkerQueue);
    enc.putU8(uint8_t(b.policy.kind));
    enc.putU64(b.cycleCapPerInst);
    enc.putU64(b.seedBegin);
    enc.putU64(b.seedEnd);
}

namespace
{

/**
 * An enum byte no greater than `last`. Any other byte names no value,
 * so the request is rejected naming the field instead of running a
 * batch under an enumerator that does not exist.
 */
template <typename Enum>
Enum
getEnum(wire::Decoder &dec, Enum last, const char *field)
{
    const uint8_t v = dec.getU8();
    if (v > uint8_t(last))
        SLIP_FATAL("batch request: ", field, " byte ", unsigned(v),
                   " is out of range (max ", unsigned(last), ")");
    return Enum(v);
}

} // namespace

BatchRequest
decodeBatchRequest(wire::Decoder &dec)
{
    BatchRequest b;
    b.kind = getEnum(dec, BatchKind::Bench, "batch kind");
    b.id = dec.getU64();
    b.name = dec.getString();
    const uint32_t nw = dec.getU32();
    for (uint32_t i = 0; i < nw; ++i)
        b.workloads.push_back(dec.getString());
    b.size = getEnum(dec, WorkloadSize::Default, "workload size");
    b.trialsPerWorkload = dec.getU32();
    b.minFaultsPerTrial = dec.getU32();
    b.maxFaultsPerTrial = dec.getU32();
    b.seed = dec.getU64();
    b.reliableMode = dec.getBool();
    const uint32_t nt = dec.getU32();
    for (uint32_t i = 0; i < nt; ++i)
        b.targets.push_back(
            getEnum(dec, FaultTarget::AStreamStall, "fault target"));
    b.detect.kind =
        getEnum(dec, DetectBackendKind::Checker, "detect backend");
    b.detect.replayWindow = dec.getU64();
    b.detect.replayWidth = dec.getU32();
    b.detect.checkerBandwidth = dec.getU32();
    b.detect.checkerQueue = dec.getU32();
    b.policy.kind =
        getEnum(dec, AStreamPolicyKind::Reliability, "A-stream policy");
    b.cycleCapPerInst = dec.getU64();
    b.seedBegin = dec.getU64();
    b.seedEnd = dec.getU64();
    return b;
}

void
encodeTrialResult(wire::Encoder &enc, const TrialResultMsg &m)
{
    enc.putU64(m.batchId);
    enc.putU64(m.index);
    enc.putBool(m.fromCache);
    enc.putString(m.line);
}

TrialResultMsg
decodeTrialResult(wire::Decoder &dec)
{
    TrialResultMsg m;
    m.batchId = dec.getU64();
    m.index = dec.getU64();
    m.fromCache = dec.getBool();
    m.line = dec.getString();
    return m;
}

void
encodeBatchDone(wire::Encoder &enc, const BatchDoneMsg &m)
{
    enc.putU64(m.batchId);
    enc.putU8(uint8_t(m.status));
    enc.putU64(m.completed);
    enc.putU64(m.revoked);
    enc.putU64(m.cacheHits);
    enc.putU64(m.cacheMisses);
    enc.putString(m.error);
}

BatchDoneMsg
decodeBatchDone(wire::Decoder &dec)
{
    BatchDoneMsg m;
    m.batchId = dec.getU64();
    m.status = BatchStatus(dec.getU8());
    m.completed = dec.getU64();
    m.revoked = dec.getU64();
    m.cacheHits = dec.getU64();
    m.cacheMisses = dec.getU64();
    m.error = dec.getString();
    return m;
}

void
encodeServeStats(wire::Encoder &enc, const ServeStats &s)
{
    enc.putU64(s.connections);
    enc.putU64(s.batches);
    enc.putU64(s.trialsRun);
    enc.putU64(s.trialsCached);
    enc.putU64(s.trialsRevoked);
    enc.putU64(s.cacheHits);
    enc.putU64(s.cacheMisses);
    enc.putU64(s.cacheStores);
    enc.putU64(s.cacheEvictions);
    enc.putBool(s.draining);
}

ServeStats
decodeServeStats(wire::Decoder &dec)
{
    ServeStats s;
    s.connections = dec.getU64();
    s.batches = dec.getU64();
    s.trialsRun = dec.getU64();
    s.trialsCached = dec.getU64();
    s.trialsRevoked = dec.getU64();
    s.cacheHits = dec.getU64();
    s.cacheMisses = dec.getU64();
    s.cacheStores = dec.getU64();
    s.cacheEvictions = dec.getU64();
    s.draining = dec.getBool();
    return s;
}

// ---------------------------------------------------------------------
// Handshake.
// ---------------------------------------------------------------------

bool
clientHandshake(int fd, const std::string &clientName, std::string &err)
{
    wire::Encoder hello;
    hello.putString(clientName);
    if (!wire::writeFrame(fd, wire::MsgType::Hello, hello.bytes())) {
        err = "handshake: server closed the connection";
        return false;
    }

    wire::FrameInfo reply;
    if (wire::readFrameInfo(fd, reply) != wire::ReadResult::Ok) {
        err = "handshake: no valid reply from server (not a slipd "
              "endpoint, or the connection died)";
        return false;
    }
    if (reply.type == wire::MsgType::HelloReject) {
        // The reject payload is versioned like its header; only trust
        // it when the server speaks our revision, otherwise the header
        // version is the diagnosis.
        std::string reason = "refused";
        uint16_t serverVersion = reply.version;
        if (reply.version == wire::kVersion) {
            wire::Decoder dec(reply.payload);
            serverVersion = dec.getU16();
            reason = dec.getString();
        }
        err = "handshake rejected: server speaks protocol v" +
              std::to_string(serverVersion) +
              ", this client speaks v" +
              std::to_string(wire::kVersion) + " (" + reason + ")";
        return false;
    }
    if (reply.type != wire::MsgType::HelloAck) {
        err = "handshake: unexpected frame type " +
              std::to_string(unsigned(reply.type)) + " from server";
        return false;
    }
    if (reply.version != wire::kVersion) {
        err = "handshake failed: server speaks protocol v" +
              std::to_string(reply.version) +
              ", this client speaks v" +
              std::to_string(wire::kVersion) +
              "; upgrade the older side";
        return false;
    }
    return true;
}

bool
serverHandshake(int fd, const std::string &serverName,
                std::string &clientName, std::string &err)
{
    wire::FrameInfo hello;
    if (wire::readFrameInfo(fd, hello) != wire::ReadResult::Ok) {
        err = "handshake: no valid Hello from client";
        return false;
    }
    if (hello.version != wire::kVersion ||
        hello.type != wire::MsgType::Hello) {
        const std::string reason =
            hello.type != wire::MsgType::Hello
                ? "first frame was not Hello"
                : "protocol revision mismatch";
        err = "handshake rejected: client speaks protocol v" +
              std::to_string(hello.version) +
              ", this server speaks v" +
              std::to_string(wire::kVersion) + " (" + reason + ")";
        wire::Encoder reject;
        reject.putU16(wire::kVersion);
        reject.putString(reason);
        wire::writeFrame(fd, wire::MsgType::HelloReject,
                         reject.bytes());
        return false;
    }
    wire::Decoder dec(hello.payload);
    clientName = dec.getString();

    wire::Encoder ack;
    ack.putU16(wire::kVersion);
    ack.putString(serverName);
    if (!wire::writeFrame(fd, wire::MsgType::HelloAck, ack.bytes())) {
        err = "handshake: client closed before HelloAck";
        return false;
    }
    return true;
}

} // namespace slip::serve
