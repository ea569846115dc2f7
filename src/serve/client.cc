#include "serve/client.hh"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace slip::serve
{

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Client::connect(const std::string &address, std::string &err)
{
    ::signal(SIGPIPE, SIG_IGN);
    close();

    std::string path;
    if (address.rfind("unix:", 0) == 0)
        path = address.substr(5);
    else if (address.find('/') != std::string::npos)
        path = address;

    if (!path.empty()) {
        struct sockaddr_un addr = {};
        if (path.size() >= sizeof(addr.sun_path)) {
            err = "unix socket path too long: " + path;
            return false;
        }
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0) {
            err = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            err = "connect '" + path + "': " + std::strerror(errno);
            close();
            return false;
        }
        return true;
    }

    const size_t colon = address.rfind(':');
    if (colon == std::string::npos || colon + 1 >= address.size()) {
        err = "bad address '" + address +
              "' (want unix:PATH or HOST:PORT)";
        return false;
    }
    const std::string host = address.substr(0, colon);
    const std::string port = address.substr(colon + 1);

    struct addrinfo hints = {};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo *res = nullptr;
    const int rc =
        ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (rc != 0 || !res) {
        err = "resolve '" + host + "': " + gai_strerror(rc);
        return false;
    }
    fd_ = ::socket(res->ai_family, res->ai_socktype,
                   res->ai_protocol);
    if (fd_ < 0 ||
        ::connect(fd_, res->ai_addr, res->ai_addrlen) != 0) {
        err = "connect '" + address + "': " + std::strerror(errno);
        ::freeaddrinfo(res);
        close();
        return false;
    }
    ::freeaddrinfo(res);
    return true;
}

bool
Client::handshake(const std::string &clientName, std::string &err)
{
    if (fd_ < 0) {
        err = "not connected";
        return false;
    }
    return clientHandshake(fd_, clientName, err);
}

bool
Client::submitBatch(const BatchRequest &req, const OnResult &onResult,
                    BatchDoneMsg &done, std::string &err)
{
    if (fd_ < 0) {
        err = "not connected";
        return false;
    }
    wire::Encoder enc;
    enc.put(req);
    if (!wire::writeFrame(fd_, wire::MsgType::BatchRequest,
                          enc.bytes())) {
        err = "server closed the connection";
        return false;
    }

    bool cancelSent = false;
    for (;;) {
        wire::MsgType type;
        std::string payload;
        const wire::ReadResult r =
            wire::readFrame(fd_, type, payload);
        if (r != wire::ReadResult::Ok) {
            err = r == wire::ReadResult::Eof
                      ? "server closed mid-batch (drained or died)"
                      : "protocol error mid-batch (torn or foreign "
                        "frame)";
            return false;
        }
        if (type == wire::MsgType::TrialResult) {
            wire::Decoder dec(payload);
            TrialResultMsg m;
            dec.get(m);
            const bool keep = onResult ? onResult(m) : true;
            if (!keep && !cancelSent) {
                wire::Encoder cancel;
                cancel.putU64(req.id);
                // A failed cancel write means the server is gone; the
                // next read will say so.
                wire::writeFrame(fd_, wire::MsgType::CancelBatch,
                                 cancel.bytes());
                cancelSent = true;
            }
            continue;
        }
        if (type == wire::MsgType::BatchDone) {
            wire::Decoder dec(payload);
            dec.get(done);
            return true;
        }
        err = "unexpected frame type " +
              std::to_string(unsigned(type)) + " mid-batch";
        return false;
    }
}

bool
Client::queryStats(ServeStats &stats, std::string &err)
{
    if (fd_ < 0) {
        err = "not connected";
        return false;
    }
    if (!wire::writeFrame(fd_, wire::MsgType::StatsRequest, {})) {
        err = "server closed the connection";
        return false;
    }
    wire::MsgType type;
    std::string payload;
    if (wire::readFrame(fd_, type, payload) != wire::ReadResult::Ok ||
        type != wire::MsgType::StatsReply) {
        err = "no stats reply";
        return false;
    }
    wire::Decoder dec(payload);
    dec.get(stats);
    return true;
}

bool
Client::requestDrain(std::string &err)
{
    if (fd_ < 0) {
        err = "not connected";
        return false;
    }
    if (!wire::writeFrame(fd_, wire::MsgType::DrainRequest, {})) {
        err = "server closed the connection";
        return false;
    }
    wire::MsgType type;
    std::string payload;
    if (wire::readFrame(fd_, type, payload) != wire::ReadResult::Ok ||
        type != wire::MsgType::DrainAck) {
        err = "no drain acknowledgment";
        return false;
    }
    return true;
}

} // namespace slip::serve
