/**
 * @file
 * Client library for the slipd campaign server — the engine behind
 * the slipc CLI and the serve_throughput bench.
 *
 * A Client owns one connection: connect (slipd's Unix socket),
 * handshake (version-checked, fails closed with a diagnosis), then
 * any number of batches, stats queries, or a drain request.
 * submitBatch() streams results to a callback in completion order;
 * callers wanting the canonical journal order sort by
 * TrialResultMsg::index when the batch finishes. Returning false from
 * the callback sends CancelBatch — the server revokes every
 * not-yet-dispatched trial and finishes the batch with
 * BatchStatus::Cancelled.
 */

#ifndef SLIPSTREAM_SERVE_CLIENT_HH
#define SLIPSTREAM_SERVE_CLIENT_HH

#include <functional>
#include <string>

#include "serve/serve_proto.hh"

namespace slip::serve
{

class Client
{
  public:
    /** Receives each result as it arrives; false requests cancel. */
    using OnResult = std::function<bool(const TrialResultMsg &)>;

    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Connect to the Unix socket at `address`, "unix:PATH" or a bare
     * PATH. False + `err` on failure.
     */
    bool connect(const std::string &address, std::string &err);

    /** The version-checked Hello exchange (serve_proto.hh). */
    bool handshake(const std::string &clientName, std::string &err);

    /**
     * Run one batch. Returns true when the server finished the
     * exchange with a BatchDone (whatever its status — inspect
     * `done`); false + `err` on transport failure.
     */
    bool submitBatch(const BatchRequest &req, const OnResult &onResult,
                     BatchDoneMsg &done, std::string &err);

    bool queryStats(ServeStats &stats, std::string &err);

    /** Ask the server to drain (finish in-flight, reject new). */
    bool requestDrain(std::string &err);

    bool connected() const { return fd_ >= 0; }
    void close();

  private:
    int fd_ = -1;
};

} // namespace slip::serve

#endif // SLIPSTREAM_SERVE_CLIENT_HH
