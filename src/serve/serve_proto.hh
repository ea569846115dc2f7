/**
 * @file
 * The slipc <-> slipd application protocol, layered on the versioned
 * frame transport in harness/wire.hh.
 *
 * Connection lifecycle:
 *
 *   client                           server
 *   ------                           ------
 *   Hello {client name}        ->
 *                              <-    HelloAck {version, server name}
 *                                 or HelloReject {server version, why}
 *   BatchRequest {batch}       ->
 *                              <-    TrialResult* (completion order)
 *   [CancelBatch {id}]         ->
 *                              <-    BatchDone {summary}
 *
 * The handshake is the only version-lenient exchange (wire::
 * readFrameInfo): a peer speaking a different protocol revision is
 * told both versions and refused — negotiation fails closed with a
 * diagnosis, never open. Every frame after HelloAck goes through the
 * strict reader.
 *
 * Trial results stream back in *completion* order, each tagged with
 * its deterministic trial index; clients that want the canonical
 * (journal) order sort by index at batch end. The result line bytes
 * are exactly campaignTrialLine()'s, so a batch served over a socket
 * compares byte-for-byte against a local slip_campaign journal.
 */

#ifndef SLIPSTREAM_SERVE_SERVE_PROTO_HH
#define SLIPSTREAM_SERVE_SERVE_PROTO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "detect/detect_params.hh"
#include "harness/fault_campaign.hh"
#include "harness/wire.hh"
#include "slipstream/fault_injector.hh"
#include "workloads/workloads.hh"

namespace slip::serve
{

/** What a batch asks the server to run. */
enum class BatchKind : uint8_t
{
    Campaign = 0, // fault-injection campaign (FaultCampaignConfig)
    Fuzz = 1,     // differential-fuzz seed window
    Bench = 2,    // fault-free performance sweep (zero-fault trials)
};

/** The greatest batch kind (the wire decoder's range check). */
constexpr BatchKind
lastEnumerator(BatchKind)
{
    return BatchKind::Bench;
}

/** "campaign", "fuzz", "bench". */
const char *batchKindName(BatchKind kind);

/**
 * One batch of trials. Campaign and Bench batches carry the portable
 * subset of FaultCampaignConfig (everything that shapes trial *plans*
 * and result bytes; isolation/workers/journal stay server policy,
 * preserving the byte-identity invariant). Fuzz batches carry a seed
 * window.
 */
struct BatchRequest
{
    BatchKind kind = BatchKind::Campaign;

    /** Client-chosen id, echoed on every reply frame. */
    uint64_t id = 0;

    // Campaign / Bench.
    std::string name = "serve_campaign";
    std::vector<std::string> workloads; // empty = all eight
    WorkloadSize size = WorkloadSize::Test;
    unsigned trialsPerWorkload = 8;
    unsigned minFaultsPerTrial = 1;
    unsigned maxFaultsPerTrial = 3;
    uint64_t seed = 20260806;
    bool reliableMode = false;
    std::vector<FaultTarget> targets; // empty = mode default
    DetectParams detect;
    AStreamPolicyParams policy;
    Cycle cycleCapPerInst = 10;

    // Fuzz.
    uint64_t seedBegin = 0;
    uint64_t seedEnd = 0;

    /** The equivalent local config (campaign/bench kinds). */
    FaultCampaignConfig toCampaignConfig() const;

    /** The wire fields, in order (see harness/wire.hh). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("batch kind", self.kind);
        v("batch id", self.id);
        v("name", self.name);
        v("workloads", self.workloads);
        v("workload size", self.size);
        v("trials per workload", self.trialsPerWorkload);
        v("min faults per trial", self.minFaultsPerTrial);
        v("max faults per trial", self.maxFaultsPerTrial);
        v("seed", self.seed);
        v("reliable mode", self.reliableMode);
        v("fault target", self.targets);
        v("detect", self.detect);
        v("A-stream policy", self.policy.kind);
        v("cycle cap per instruction", self.cycleCapPerInst);
        v("first fuzz seed", self.seedBegin);
        v("end fuzz seed", self.seedEnd);
    }
};

/** One finished trial, streamed as it completes. */
struct TrialResultMsg
{
    uint64_t batchId = 0;
    uint64_t index = 0;     // deterministic trial index in the batch
    bool fromCache = false; // served from the result cache
    std::string line;       // canonical JSONL bytes (no newline)

    /** The wire fields, in order (see harness/wire.hh). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("batch id", self.batchId);
        v("trial index", self.index);
        v("from cache", self.fromCache);
        v("line", self.line);
    }
};

/** How a batch ended. */
enum class BatchStatus : uint8_t
{
    Ok = 0,        // every trial completed
    Cancelled = 1, // client revoked the undispatched remainder
    Rejected = 2,  // server draining: batch refused before any trial
    Error = 3,     // server-side failure (message in `error`)
};

/** The greatest batch status (the wire decoder's range check). */
constexpr BatchStatus
lastEnumerator(BatchStatus)
{
    return BatchStatus::Error;
}

/** "ok", "cancelled", "rejected", "error". */
const char *batchStatusName(BatchStatus status);

/** Batch summary, always the last frame of a batch. */
struct BatchDoneMsg
{
    uint64_t batchId = 0;
    BatchStatus status = BatchStatus::Ok;
    uint64_t completed = 0;  // TrialResult frames sent
    uint64_t revoked = 0;    // trials never dispatched (cancel/drain)
    uint64_t cacheHits = 0;  // completed trials served from cache
    uint64_t cacheMisses = 0;
    std::string error;

    /** The wire fields, in order (see harness/wire.hh). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("batch id", self.batchId);
        v("batch status", self.status);
        v("completed", self.completed);
        v("revoked", self.revoked);
        v("cache hits", self.cacheHits);
        v("cache misses", self.cacheMisses);
        v("error", self.error);
    }
};

/** Server-lifetime counters (StatsReply payload). */
struct ServeStats
{
    uint64_t connections = 0;
    uint64_t batches = 0;
    uint64_t trialsRun = 0;      // executed (cache misses)
    uint64_t trialsCached = 0;   // served from cache
    uint64_t trialsRevoked = 0;  // cancelled before dispatch
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheStores = 0;
    uint64_t cacheEvictions = 0;
    bool draining = false;

    /** The wire fields, in order (see harness/wire.hh). */
    template <typename Self, typename Visit>
    static void
    fields(Self &self, Visit &&v)
    {
        v("connections", self.connections);
        v("batches", self.batches);
        v("trials run", self.trialsRun);
        v("trials cached", self.trialsCached);
        v("trials revoked", self.trialsRevoked);
        v("cache hits", self.cacheHits);
        v("cache misses", self.cacheMisses);
        v("cache stores", self.cacheStores);
        v("cache evictions", self.cacheEvictions);
        v("draining", self.draining);
    }
};

// ---------------------------------------------------------------------
// Handshake.
// ---------------------------------------------------------------------

/**
 * Client side: send Hello and interpret the reply. Returns false with
 * a one-line diagnosis in `err` — including the "server speaks vX,
 * this client speaks vY" case, read leniently so the mismatch can be
 * *named* rather than surfacing as a torn frame.
 */
bool clientHandshake(int fd, const std::string &clientName,
                     std::string &err);

/**
 * Server side: read the client's Hello (leniently), and either accept
 * (HelloAck) or refuse (HelloReject naming both versions). Returns
 * false after a reject or on transport failure; `clientName` is
 * filled on success.
 */
bool serverHandshake(int fd, const std::string &serverName,
                     std::string &clientName, std::string &err);

} // namespace slip::serve

#endif // SLIPSTREAM_SERVE_SERVE_PROTO_HH
