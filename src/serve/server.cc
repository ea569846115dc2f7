#include "serve/server.hh"

#include <algorithm>
#include <cstring>
#include <csignal>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"
#include "harness/sim_runner.hh"
#include "obs/trace_session.hh"
#include "workloads/workloads.hh"

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
    encodeTrialResult(enc, m);
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
    encodeBatchDone(enc, m);
    wire::writeFrame(fd, wire::MsgType::BatchDone, enc.bytes());
}

/**
 * Bench sweeps are zero-fault campaign trials: same entries, same
 * cycle-cap formula as planCampaignTrials(), empty plan lists — so
 * the record/render pipeline (and the result cache) treats them
 * uniformly, and a bench line is a campaign line whose trial planned
 * no faults.
 */
std::vector<CampaignTrialSpec>
planBenchTrials(const FaultCampaignConfig &cfg)
{
    std::vector<std::string> names = cfg.workloads;
    if (names.empty())
        for (const Workload &w : allWorkloads(cfg.size))
            names.push_back(w.name);

    std::vector<CampaignTrialSpec> specs;
    for (const std::string &name : names) {
        const ProgramCache::Entry &e =
            ProgramCache::global().get(name, cfg.size);
        const Cycle maxCycles =
            e.goldenInstCount * cfg.cycleCapPerInst +
            Cycle(cfg.params.watchdog.maxTrips + 2) *
                cfg.params.watchdog.stallCycles +
            100'000;
        for (unsigned t = 0; t < cfg.trialsPerWorkload; ++t)
            specs.push_back({&e, name, {}, maxCycles});
    }
    return specs;
}

/** Canonical key bytes of one fuzz trial (see result_cache.hh). */
CacheKey
fuzzTrialKey(const BatchRequest &req, uint64_t seed,
             const std::string &source)
{
    wire::Encoder enc;
    enc.putU16(wire::kVersion);
    enc.putString("fuzz");
    enc.putString(req.name);
    enc.putU64(seed);
    // The rendered source is the generator's identity: a generator
    // change produces different text and silently misses.
    enc.putString(source);
    return cacheKeyOf(enc.bytes());
}

/** One fuzz seed as a canonical JSONL line (no newline). */
std::string
fuzzTrialLine(const BatchRequest &req, uint64_t seed,
              const JobOutcome &o)
{
    std::string line = "{\"campaign\":\"" + req.name +
                       "\",\"kind\":\"fuzz\",\"seed\":" +
                       std::to_string(seed);
    line += ",\"status\":\"";
    line += jobStatusName(o.status);
    line += "\"";
    if (o.status == JobOutcome::Status::Ok)
        line += std::string(",\"diverged\":") +
                (o.metrics.outputCorrect ? "0" : "1");
    line += "}";
    return line;
}

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

    if (opts_.unixPath.empty() && opts_.tcpPort == 0) {
        err = "no listener configured (need a unix path or tcp port)";
        return false;
    }
    if (::pipe(wakePipe_) != 0) {
        err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }

    if (!opts_.unixPath.empty()) {
        struct sockaddr_un addr = {};
        if (opts_.unixPath.size() >= sizeof(addr.sun_path)) {
            err = "unix socket path too long: " + opts_.unixPath;
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
    }

    if (opts_.tcpPort != 0) {
        tcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcpFd_ < 0) {
            err = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        int one = 1;
        ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        struct sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        // Port 1 is "any ephemeral": nothing binds there unprivileged,
        // so treat it as 0 and read the port back.
        addr.sin_port =
            htons(opts_.tcpPort == 1 ? 0 : opts_.tcpPort);
        if (::bind(tcpFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(tcpFd_, 64) != 0) {
            err = std::string("bind/listen on tcp port: ") +
                  std::strerror(errno);
            return false;
        }
        socklen_t len = sizeof(addr);
        ::getsockname(tcpFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        boundTcpPort_ = ntohs(addr.sin_port);
    }

    running_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        struct pollfd fds[3];
        nfds_t n = 0;
        if (unixFd_ >= 0)
            fds[n++] = {unixFd_, POLLIN, 0};
        if (tcpFd_ >= 0)
            fds[n++] = {tcpFd_, POLLIN, 0};
        fds[n++] = {wakePipe_[0], POLLIN, 0};
        if (::poll(fds, n, -1) <= 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (nfds_t i = 0; i + 1 < n; ++i) {
            if (!(fds[i].revents & POLLIN))
                continue;
            const int fd = ::accept(fds[i].fd, nullptr, nullptr);
            if (fd < 0)
                continue;
            uint64_t connId;
            {
                std::lock_guard<std::mutex> lock(statsMu_);
                connId = ++stats_.connections;
            }
            std::lock_guard<std::mutex> lock(connMu_);
            connThreads_.emplace_back(
                [this, fd, connId] { serveConnection(fd, connId); });
        }
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
                req = decodeBatchRequest(dec);
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
            encodeServeStats(enc, statsSnapshot());
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

    // A wave's cache hits are framed back to back and written at once,
    // before its misses are dispatched: one write per wave, where one
    // per hit would send the same bytes in the same order.
    std::string hitFrames;
    uint64_t waveHits = 0;
    const auto addHit = [&](uint64_t index, std::string &line) {
        appendTrialResult(hitFrames, {req.id, index, true, std::move(line)});
        ++waveHits;
    };
    const auto flushHits = [&] {
        if (waveHits == 0)
            return;
        if (wire::writeFrames(fd, hitFrames)) {
            done.completed += waveHits;
            done.cacheHits += waveHits;
            std::lock_guard<std::mutex> lock(statsMu_);
            stats_.trialsCached += waveHits;
        } else {
            clientGone = true;
        }
        hitFrames.clear();
        waveHits = 0;
    };

    // Dispatch one wave of campaign-style specs (cache probe, then
    // the misses on the pool), streaming every finished line.
    const auto runSpecWave =
        [&](const FaultCampaignConfig &cfg,
            const std::vector<CampaignTrialSpec> &specs, size_t lo,
            size_t hi) {
            std::vector<size_t> missIdx;
            std::vector<CacheKey> missKey;
            std::string line;
            for (size_t i = lo; i < hi; ++i) {
                const CacheKey key =
                    campaignTrialKey(cfg, specs[i], i);
                if (cache_->lookup(key, line)) {
                    addHit(i, line);
                } else {
                    SLIP_TRACE(obs::Category::Serve,
                               obs::Name::CacheMiss,
                               obs::Phase::Instant, req.id, i);
                    missIdx.push_back(i);
                    missKey.push_back(key);
                }
            }
            flushHits();
            if (missIdx.empty() || clientGone)
                return;
            SimJobRunner runner(opts_.workers);
            runner.setIsolation(opts_.isolation);
            for (const size_t i : missIdx) {
                const CampaignTrialSpec *s = &specs[i];
                runner.add([&cfg, s, i](const CancelToken &cancel) {
                    return runCampaignTrial(cfg, *s, i, cancel);
                });
            }
            runner.runSupervised([&](size_t job,
                                     const JobOutcome &o) {
                const size_t i = missIdx[job];
                const TrialRecord t =
                    recordCampaignTrial(cfg, specs[i], i, o);
                const std::string line =
                    campaignTrialLine(cfg, i, t);
                cache_->store(missKey[job], line);
                if (!sendTrialResult(fd, {req.id, i, false, line}))
                    clientGone = true;
                ++done.completed;
                ++done.cacheMisses;
            });
            std::lock_guard<std::mutex> lock(statsMu_);
            stats_.trialsRun += missIdx.size();
        };

    // Between waves: did the client revoke the rest of the batch?
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
        if (req.kind == BatchKind::Campaign ||
            req.kind == BatchKind::Bench) {
            FaultCampaignConfig cfg = req.toCampaignConfig();
            const std::vector<CampaignTrialSpec> specs =
                req.kind == BatchKind::Bench
                    ? planBenchTrials(cfg)
                    : planCampaignTrials(cfg);
            totalTrials = specs.size();
            const size_t wave =
                opts_.waveSize
                    ? opts_.waveSize
                    : size_t(4) * SimJobRunner(opts_.workers).jobs();
            for (size_t next = 0;
                 next < specs.size() && !cancelled && !clientGone &&
                 !stopping_.load();
                 ) {
                const size_t hi =
                    std::min(next + wave, specs.size());
                runSpecWave(cfg, specs, next, hi);
                next = hi;
                checkCancel();
            }
        } else if (req.kind == BatchKind::Fuzz) {
            totalTrials = req.seedEnd > req.seedBegin
                              ? size_t(req.seedEnd - req.seedBegin)
                              : 0;
            const size_t wave =
                opts_.waveSize
                    ? opts_.waveSize
                    : size_t(4) * SimJobRunner(opts_.workers).jobs();
            for (uint64_t next = req.seedBegin;
                 next < req.seedEnd && !cancelled && !clientGone &&
                 !stopping_.load();
                 ) {
                const uint64_t hi =
                    std::min<uint64_t>(next + wave, req.seedEnd);
                // Generate first: the rendered source is both the
                // cache identity and the job input.
                std::vector<uint64_t> seeds;
                std::vector<std::string> sources;
                std::vector<CacheKey> keys;
                std::string line;
                for (uint64_t s = next; s < hi; ++s) {
                    const std::string src =
                        fuzz::generate(s).render();
                    const CacheKey key = fuzzTrialKey(req, s, src);
                    if (cache_->lookup(key, line)) {
                        addHit(s - req.seedBegin, line);
                    } else {
                        seeds.push_back(s);
                        sources.push_back(src);
                        keys.push_back(key);
                    }
                }
                flushHits();
                if (!seeds.empty() && !clientGone) {
                    SimJobRunner runner(opts_.workers);
                    runner.setIsolation(opts_.isolation);
                    for (const std::string &src : sources) {
                        runner.add([src](const CancelToken &) {
                            const Program p = assemble(src);
                            const fuzz::OracleVerdict v =
                                fuzz::runOracle(p);
                            RunMetrics m;
                            m.model = "fuzz_oracle";
                            m.outputCorrect = !v.diverged;
                            m.outputBytes = v.report.size();
                            return m;
                        });
                    }
                    runner.runSupervised([&](size_t job,
                                             const JobOutcome &o) {
                        const uint64_t s = seeds[job];
                        const std::string line =
                            fuzzTrialLine(req, s, o);
                        cache_->store(keys[job], line);
                        if (!sendTrialResult(
                                fd, {req.id, s - req.seedBegin,
                                     false, line}))
                            clientGone = true;
                        ++done.completed;
                        ++done.cacheMisses;
                    });
                    std::lock_guard<std::mutex> lock(statsMu_);
                    stats_.trialsRun += seeds.size();
                }
                next = hi;
                checkCancel();
            }
        } else {
            done.status = BatchStatus::Error;
            done.error = "unknown batch kind " +
                         std::to_string(unsigned(req.kind));
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
    {
        std::lock_guard<std::mutex> lock(connMu_);
        for (std::thread &t : connThreads_)
            if (t.joinable())
                t.join();
        connThreads_.clear();
    }
    if (unixFd_ >= 0) {
        ::close(unixFd_);
        unixFd_ = -1;
        ::unlink(opts_.unixPath.c_str());
    }
    if (tcpFd_ >= 0) {
        ::close(tcpFd_);
        tcpFd_ = -1;
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
