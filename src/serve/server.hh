/**
 * @file
 * The slipd campaign server: a persistent daemon that accepts
 * fault-campaign batches over a Unix-domain socket, runs them on
 * SimJobRunner, and streams JSONL results back as trials complete.
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
 *  - One run per batch. The server probes every trial's key in the
 *    result cache and sends the hits first, in one write per 64 KiB
 *    of frames; the misses then run as one supervised SimJobRunner
 *    batch, each line streamed as its trial finishes.
 *
 *  - Crash isolation is inherited, not reimplemented. The misses run
 *    on SimJobRunner with the server's isolation mode; a trial that
 *    SIGSEGVs the simulator costs that trial (a `crashed` line), and
 *    poison/quarantine/deadline-reap semantics are the runner's.
 *
 *  - A client's cancel, a lost client and stop() end a batch at its
 *    next finished trial: the trials already dispatched finish, and
 *    every trial not yet dispatched is revoked. A drain request lets
 *    in-flight batches finish while new ones are refused — SIGTERM
 *    never truncates a batch mid-stream.
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
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "harness/worker_pool.hh"
#include "serve/result_cache.hh"
#include "serve/serve_proto.hh"

namespace slip::serve
{

struct ServerOptions
{
    /** The Unix-domain socket the server listens on (required). */
    std::string unixPath;

    /** Result-cache root; empty disables caching. */
    std::string cacheDir;

    /** Cache entry cap (slipd --cache-max). */
    uint64_t cacheMax = 65536;

    /** Workers per batch; 0 = defaultJobs() ($SLIPSTREAM_JOBS). */
    unsigned workers = 0;

    /** Trial sandboxing, as in FaultCampaignConfig. */
    IsolationMode isolation = isolationFromEnv();

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

    /** Close the listener and join every thread. Idempotent. */
    void stop();

    ServeStats statsSnapshot() const;

    ResultCache &cache() { return *cache_; }

  private:
    void acceptLoop();
    void serveConnection(int fd, uint64_t connId);
    void handleBatch(int fd, const BatchRequest &req);

    /** One client connection's thread; `finished` is set as it ends. */
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> finished{false};
    };

    ServerOptions opts_;
    std::unique_ptr<ResultCache> cache_;

    int unixFd_ = -1;
    int wakePipe_[2] = {-1, -1};

    std::thread acceptThread_;
    // The accept thread joins each connection that has finished as it
    // accepts the next; stop() joins the rest once the accept thread
    // has exited.
    std::list<Connection> connections_;

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
