/**
 * @file
 * The slipd campaign server: a persistent daemon that accepts trial
 * batches (fault campaigns, fuzz seed windows, fault-free bench
 * sweeps) over Unix/TCP sockets, runs them on SimJobRunner, and
 * streams JSONL results back as trials complete.
 *
 * Design invariants:
 *
 *  - Byte identity. A served batch's result lines are exactly the
 *    lines a local slip_campaign journal holds for the same config —
 *    the server drives the same plan → execute → record → render
 *    pipeline (harness/fault_campaign.hh) and streams each line
 *    tagged with its deterministic trial index. Worker count,
 *    isolation mode, client count, and cache state change *when*
 *    lines arrive, never their bytes.
 *
 *  - One path per batch. Campaign, bench and fuzz batches share one
 *    wave loop; only the trial key, the job, and the result line
 *    differ by kind.
 *
 *  - Crash isolation is inherited, not reimplemented. Waves run on
 *    SimJobRunner with the server's isolation mode; a trial that
 *    SIGSEGVs the simulator costs that trial (a `crashed` line), and
 *    poison/quarantine/deadline-reap semantics are the runner's.
 *
 *  - Batches dispatch in bounded waves, so client cancellation can
 *    revoke every not-yet-dispatched trial between waves, and a
 *    drain request lets in-flight batches finish while new ones are
 *    refused — SIGTERM never truncates a batch mid-stream.
 *
 *  - Results are cached content-addressed on disk (result_cache.hh);
 *    a repeated batch answers from the cache, surviving server
 *    restarts.
 */

#ifndef SLIPSTREAM_SERVE_SERVER_HH
#define SLIPSTREAM_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/worker_pool.hh"
#include "serve/result_cache.hh"
#include "serve/serve_proto.hh"

namespace slip::serve
{

struct ServerOptions
{
    /** Unix-domain socket path; non-empty enables the listener. */
    std::string unixPath;

    /**
     * TCP listener on 127.0.0.1; 0 disables, 1 picks an ephemeral
     * port (read it back from Server::tcpPort() after start()).
     */
    uint16_t tcpPort = 0;

    /** Result-cache root; empty disables caching. */
    std::string cacheDir;

    /** Cache entry cap (slipd --cache-max). */
    uint64_t cacheMax = 65536;

    /** Workers per batch; 0 = defaultJobs() ($SLIPSTREAM_JOBS). */
    unsigned workers = 0;

    /** Trial sandboxing, as in FaultCampaignConfig. */
    IsolationMode isolation = isolationFromEnv();

    /** Trials dispatched per wave (cancel/drain granularity);
     *  0 = 4x the worker count. */
    unsigned waveSize = 0;

    std::string name = "slipd";
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    /** Bind, listen, and start accepting. False + `err` on failure. */
    bool start(std::string &err);

    /**
     * Stop admitting batches: running batches finish and stream their
     * BatchDone, new BatchRequests are rejected with
     * BatchStatus::Rejected. Idempotent; also triggered remotely by a
     * DrainRequest frame.
     */
    void beginDrain();

    bool draining() const { return draining_.load(); }

    /** Block until no batch is executing (drain mode or not). */
    void waitIdle();

    /** Close the listeners and join every thread. Idempotent. */
    void stop();

    ServeStats statsSnapshot() const;

    ResultCache &cache() { return *cache_; }

    /** The bound TCP port (after start(); 0 if TCP is disabled). */
    uint16_t tcpPort() const { return boundTcpPort_; }

  private:
    void acceptLoop();
    void serveConnection(int fd, uint64_t connId);
    void handleBatch(int fd, const BatchRequest &req);

    ServerOptions opts_;
    std::unique_ptr<ResultCache> cache_;

    int unixFd_ = -1;
    int tcpFd_ = -1;
    uint16_t boundTcpPort_ = 0;
    int wakePipe_[2] = {-1, -1};

    std::thread acceptThread_;
    std::mutex connMu_;
    std::vector<std::thread> connThreads_;

    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopping_{false};

    mutable std::mutex statsMu_;
    std::condition_variable idleCv_;
    unsigned activeBatches_ = 0;
    ServeStats stats_;
};

} // namespace slip::serve

#endif // SLIPSTREAM_SERVE_SERVER_HH
