#include "serve/serve_proto.hh"

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
