#include "serve/server.hh"

#include <cstring>
#include <csignal>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "harness/sim_runner.hh"
#include "obs/trace_session.hh"

namespace slip::serve
{

namespace
{

/** Is one frame's worth of data (possibly) waiting on fd? */
bool
pollReadable(int fd, int timeoutMs)
{
    struct pollfd p = {};
    p.fd = fd;
    p.events = POLLIN;
    const int r = ::poll(&p, 1, timeoutMs);
    return r > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR));
}

/** Append one TrialResult frame to `frames`. */
void
appendTrialResult(std::string &frames, const TrialResultMsg &m)
{
    wire::Encoder enc;
    enc.put(m);
    wire::appendFrame(frames, wire::MsgType::TrialResult, enc.bytes());
}

bool
sendTrialResult(int fd, const TrialResultMsg &m)
{
    std::string frame;
    appendTrialResult(frame, m);
    return wire::writeFrames(fd, frame);
}

/** The summary frame that ends every batch, however it ended. */
void
sendBatchDone(int fd, const BatchDoneMsg &m)
{
    wire::Encoder enc;
    enc.put(m);
    wire::writeFrame(fd, wire::MsgType::BatchDone, enc.bytes());
}

/**
 * Cache hits are framed back to back and written this many bytes at a
 * time: one write per hit would send the same bytes in the same order.
 */
constexpr size_t kHitWriteBytes = size_t(64) << 10;

} // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts))
{
    cache_ = std::make_unique<ResultCache>(opts_.cacheDir,
                                           opts_.cacheMax);
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string &err)
{
    // A dying client must surface as a failed write, not SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    struct sockaddr_un addr = {};
    if (opts_.unixPath.empty()) {
        err = "no listener configured (need a unix socket path)";
        return false;
    }
    if (opts_.unixPath.size() >= sizeof(addr.sun_path)) {
        err = "unix socket path too long: " + opts_.unixPath;
        return false;
    }
    if (::pipe(wakePipe_) != 0) {
        err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    unixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unixFd_ < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    ::unlink(opts_.unixPath.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts_.unixPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(unixFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(unixFd_, 64) != 0) {
        err = "bind/listen on '" + opts_.unixPath +
              "': " + std::strerror(errno);
        return false;
    }

    running_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        struct pollfd fds[2] = {{unixFd_, POLLIN, 0},
                                {wakePipe_[0], POLLIN, 0}};
        if (::poll(fds, 2, -1) <= 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (!(fds[0].revents & POLLIN))
            continue;
        const int fd = ::accept(unixFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        uint64_t connId;
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            connId = ++stats_.connections;
        }
        // Join the connections that have ended, so that a finished
        // connection keeps no thread, and no stack, until stop().
        for (auto it = connections_.begin(); it != connections_.end();) {
            if (it->finished.load()) {
                it->thread.join();
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
        Connection &conn = connections_.emplace_back();
        conn.thread = std::thread([this, fd, connId, &conn] {
            serveConnection(fd, connId);
            conn.finished = true;
        });
    }
}

void
Server::serveConnection(int fd, uint64_t connId)
{
    SLIP_TRACE(obs::Category::Serve, obs::Name::ClientConnect,
               obs::Phase::Instant, connId, 0);
    std::string clientName, err;
    if (!serverHandshake(fd, opts_.name, clientName, err)) {
        SLIP_INFORM("slipd: refused connection ", connId, ": ", err);
        ::close(fd);
        return;
    }

    for (;;) {
        // Poll with a timeout so an idle connection notices stop().
        if (!pollReadable(fd, 200)) {
            if (stopping_.load())
                break;
            continue;
        }
        wire::MsgType type;
        std::string payload;
        const wire::ReadResult r = wire::readFrame(fd, type, payload);
        if (r != wire::ReadResult::Ok)
            break;
        switch (type) {
          case wire::MsgType::BatchRequest: {
            // A malformed request (truncated, or an enum byte out of
            // range) fails alone: the client gets an Error summary and
            // this connection keeps being served.
            BatchRequest req;
            try {
                wire::Decoder dec(payload);
                dec.get(req);
            } catch (const std::exception &e) {
                BatchDoneMsg done;
                done.status = BatchStatus::Error;
                done.error = e.what();
                SLIP_WARN("slipd: connection ", connId,
                          " sent a malformed batch: ", e.what());
                sendBatchDone(fd, done);
                break;
            }
            handleBatch(fd, req);
            break;
          }
          case wire::MsgType::StatsRequest: {
            wire::Encoder enc;
            enc.put(statsSnapshot());
            wire::writeFrame(fd, wire::MsgType::StatsReply,
                             enc.bytes());
            break;
          }
          case wire::MsgType::DrainRequest: {
            beginDrain();
            wire::writeFrame(fd, wire::MsgType::DrainAck, {});
            break;
          }
          case wire::MsgType::CancelBatch:
            // No batch in flight on this connection: stale cancel.
            break;
          default:
            SLIP_INFORM("slipd: connection ", connId,
                        " sent unexpected frame type ",
                        unsigned(type), "; closing");
            ::close(fd);
            return;
        }
    }
    SLIP_TRACE(obs::Category::Serve, obs::Name::ClientDisconnect,
               obs::Phase::Instant, connId, 0);
    ::close(fd);
}

void
Server::handleBatch(int fd, const BatchRequest &req)
{
    BatchDoneMsg done;
    done.batchId = req.id;

    if (draining_.load() || stopping_.load()) {
        done.status = BatchStatus::Rejected;
        done.error = "server is draining; submit to another instance "
                     "or retry after restart";
        sendBatchDone(fd, done);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++activeBatches_;
        ++stats_.batches;
    }
    SLIP_TRACE(obs::Category::Serve, obs::Name::BatchSpan,
               obs::Phase::Begin, req.id, 0);

    size_t totalTrials = 0;
    bool cancelled = false;
    bool clientGone = false;

    // Did the client revoke the rest of the batch?
    const auto checkCancel = [&] {
        while (!clientGone && pollReadable(fd, 0)) {
            wire::MsgType type;
            std::string payload;
            if (wire::readFrame(fd, type, payload) !=
                wire::ReadResult::Ok) {
                clientGone = true;
                return;
            }
            if (type == wire::MsgType::CancelBatch) {
                wire::Decoder dec(payload);
                if (dec.getU64() == req.id)
                    cancelled = true;
            }
        }
    };

    try {
        const FaultCampaignConfig cfg = req.toCampaignConfig();
        const std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
        totalTrials = specs.size();

        // Probe every trial's key: send the hits, queue the misses.
        std::vector<size_t> missIdx;
        std::vector<CacheKey> missKey;
        std::string hitFrames, cached;
        uint64_t framedHits = 0;
        const auto flushHits = [&] {
            if (framedHits == 0)
                return;
            if (wire::writeFrames(fd, hitFrames)) {
                done.completed += framedHits;
                done.cacheHits += framedHits;
                std::lock_guard<std::mutex> lock(statsMu_);
                stats_.trialsCached += framedHits;
            } else {
                clientGone = true;
            }
            hitFrames.clear();
            framedHits = 0;
        };
        for (size_t i = 0; i < specs.size() && !clientGone; ++i) {
            const CacheKey key = campaignTrialKey(cfg, specs[i], i);
            if (cache_->lookup(key, cached)) {
                appendTrialResult(hitFrames,
                                  {req.id, i, true, std::move(cached)});
                ++framedHits;
                if (hitFrames.size() >= kHitWriteBytes)
                    flushHits();
            } else {
                SLIP_TRACE(obs::Category::Serve, obs::Name::CacheMiss,
                           obs::Phase::Instant, req.id, i);
                missIdx.push_back(i);
                missKey.push_back(key);
            }
        }
        flushHits();

        // The misses run as one supervised batch, each line streamed
        // as its trial finishes. A cancel, a lost client or stop()
        // ends the batch before its first trial or at its next
        // finished one: the trials already dispatched finish, the
        // rest are revoked.
        const auto keepGoing = [&] {
            checkCancel();
            return !cancelled && !clientGone && !stopping_.load();
        };
        if (!missIdx.empty() && keepGoing()) {
            SimJobRunner<> runner(opts_.workers);
            runner.setIsolation(opts_.isolation);
            for (const size_t i : missIdx)
                runner.add([&cfg, &specs, i](const CancelToken &cancel) {
                    return runCampaignTrial(cfg, specs[i], i, cancel);
                });
            const std::vector<JobOutcome> ran = runner.runSupervised(
                [&](size_t j, const JobOutcome &o) {
                    const size_t i = missIdx[j];
                    const std::string line = campaignTrialLine(
                        cfg, i, recordCampaignTrial(cfg, specs[i], i, o));
                    cache_->store(missKey[j], line);
                    ++done.completed;
                    ++done.cacheMisses;
                    if (!clientGone &&
                        !sendTrialResult(fd, {req.id, i, false, line}))
                        clientGone = true;
                    return keepGoing();
                });
            std::lock_guard<std::mutex> lock(statsMu_);
            stats_.trialsRun += ran.size();
        }
    } catch (const std::exception &e) {
        done.status = BatchStatus::Error;
        done.error = e.what();
        SLIP_WARN("slipd: batch ", req.id, " failed: ", e.what());
    }

    if (done.status == BatchStatus::Ok) {
        done.revoked = totalTrials - done.completed;
        if (cancelled || done.revoked > 0)
            done.status = BatchStatus::Cancelled;
        if (done.revoked > 0) {
            SLIP_TRACE(obs::Category::Serve,
                       obs::Name::BatchCancelled,
                       obs::Phase::Instant, req.id, done.revoked);
            std::lock_guard<std::mutex> lock(statsMu_);
            stats_.trialsRevoked += done.revoked;
        }
    }

    {
        std::lock_guard<std::mutex> lock(statsMu_);
        --activeBatches_;
    }
    idleCv_.notify_all();
    SLIP_TRACE(obs::Category::Serve, obs::Name::BatchSpan,
               obs::Phase::End, req.id, done.completed);

    if (!clientGone)
        sendBatchDone(fd, done);
}

void
Server::beginDrain()
{
    const bool was = draining_.exchange(true);
    if (!was) {
        SLIP_TRACE(obs::Category::Serve, obs::Name::DrainSpan,
                   obs::Phase::Begin, 0, 0);
        SLIP_INFORM("slipd: draining — finishing in-flight batches, "
                    "rejecting new ones");
    }
}

void
Server::waitIdle()
{
    std::unique_lock<std::mutex> lock(statsMu_);
    idleCv_.wait(lock, [this] { return activeBatches_ == 0; });
}

void
Server::stop()
{
    if (!running_.exchange(false))
        return;
    stopping_ = true;
    // Wake the accept loop.
    if (wakePipe_[1] >= 0) {
        const ssize_t n = ::write(wakePipe_[1], "x", 1);
        (void)n;
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (Connection &conn : connections_)
        if (conn.thread.joinable())
            conn.thread.join();
    connections_.clear();
    if (unixFd_ >= 0) {
        ::close(unixFd_);
        unixFd_ = -1;
        ::unlink(opts_.unixPath.c_str());
    }
    for (int &fd : wakePipe_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
    if (draining_.load()) {
        SLIP_TRACE(obs::Category::Serve, obs::Name::DrainSpan,
                   obs::Phase::End, 0, 0);
    }
}

ServeStats
Server::statsSnapshot() const
{
    ServeStats s;
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        s = stats_;
    }
    s.cacheHits = cache_->hits();
    s.cacheMisses = cache_->misses();
    s.cacheStores = cache_->stores();
    s.cacheEvictions = cache_->evictions();
    s.draining = draining_.load();
    return s;
}

} // namespace slip::serve
