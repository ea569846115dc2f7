#include "serve/server.hh"

#include <algorithm>
#include <cstring>
#include <csignal>
#include <type_traits>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "assembler/assembler.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "fuzz/fuzzer.hh"
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
              const Outcome<fuzz::FuzzCase> &o)
{
    std::string line = "{\"campaign\":\"" + jsonEscape(req.name) +
                       "\",\"kind\":\"fuzz\",\"seed\":" +
                       std::to_string(seed);
    line += ",\"status\":\"";
    line += jobStatusName(o.status);
    line += "\"";
    if (o.ok())
        line += std::string(",\"diverged\":") +
                (o.record.diverged ? "1" : "0");
    line += "}";
    return line;
}

/**
 * One fuzz seed's job: the three-way oracle on the seed's generated
 * program. An exception escapes to the runner, so a seed the oracle
 * cannot run reads `"status":"error"`.
 */
fuzz::FuzzCase
runFuzzSeed(uint64_t seed)
{
    const fuzz::OracleVerdict v =
        fuzz::runOracle(assemble(fuzz::generate(seed).render()));
    fuzz::FuzzCase c;
    c.seed = seed;
    c.diverged = v.diverged;
    c.report = v.report;
    return c;
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

    // Every batch kind runs its trials [0, count) the same way, one
    // wave at a time: probe the wave's keys in the cache and send the
    // hits, run the misses on the runner, and stream each finished
    // line. Only the trial key, the job, and the line differ by kind.
    const size_t wave = opts_.waveSize
                            ? opts_.waveSize
                            : size_t(4) * resolveJobs(opts_.workers);
    const auto runWaves = [&](size_t count, const auto &keyOf,
                              const auto &job, const auto &lineOf) {
        using Record = std::invoke_result_t<decltype(job), size_t,
                                            const CancelToken &>;
        for (size_t lo = 0; lo < count && !cancelled && !clientGone &&
                            !stopping_.load();) {
            const size_t hi = std::min(lo + wave, count);
            std::vector<size_t> missIdx;
            std::vector<CacheKey> missKey;
            std::string line;
            for (size_t i = lo; i < hi; ++i) {
                const CacheKey key = keyOf(i);
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
            if (!missIdx.empty() && !clientGone) {
                SimJobRunner<Record> runner(opts_.workers);
                runner.setIsolation(opts_.isolation);
                for (const size_t i : missIdx)
                    runner.add([&job, i](const CancelToken &cancel) {
                        return job(i, cancel);
                    });
                runner.runSupervised([&](size_t j, const auto &o) {
                    const size_t i = missIdx[j];
                    const std::string line = lineOf(i, o);
                    cache_->store(missKey[j], line);
                    if (!sendTrialResult(fd, {req.id, i, false, line}))
                        clientGone = true;
                    ++done.completed;
                    ++done.cacheMisses;
                });
                std::lock_guard<std::mutex> lock(statsMu_);
                stats_.trialsRun += missIdx.size();
            }
            lo = hi;
            checkCancel();
        }
    };

    try {
        if (req.kind == BatchKind::Campaign ||
            req.kind == BatchKind::Bench) {
            FaultCampaignConfig cfg = req.toCampaignConfig();
            std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
            // A bench sweep is a campaign whose trials plan no faults:
            // same programs, same cycle caps, so the record/render
            // pipeline and the cache treat both alike.
            if (req.kind == BatchKind::Bench)
                for (CampaignTrialSpec &spec : specs)
                    spec.plans.clear();
            totalTrials = specs.size();
            runWaves(
                specs.size(),
                [&](size_t i) { return campaignTrialKey(cfg, specs[i], i); },
                [&](size_t i, const CancelToken &cancel) {
                    return runCampaignTrial(cfg, specs[i], i, cancel);
                },
                [&](size_t i, const JobOutcome &o) {
                    return campaignTrialLine(
                        cfg, i, recordCampaignTrial(cfg, specs[i], i, o));
                });
        } else if (req.kind == BatchKind::Fuzz) {
            totalTrials = req.seedEnd > req.seedBegin
                              ? size_t(req.seedEnd - req.seedBegin)
                              : 0;
            // The rendered source is the cache identity; the job
            // renders the same program again from the seed.
            runWaves(
                totalTrials,
                [&](size_t i) {
                    const uint64_t seed = req.seedBegin + i;
                    return fuzzTrialKey(req, seed,
                                        fuzz::generate(seed).render());
                },
                [&](size_t i, const CancelToken &) {
                    return runFuzzSeed(req.seedBegin + i);
                },
                [&](size_t i, const Outcome<fuzz::FuzzCase> &o) {
                    return fuzzTrialLine(req, req.seedBegin + i, o);
                });
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
