/**
 * The slipd campaign-server stack: content-addressed result cache
 * (key stability, program identity, persistence, eviction, verified
 * entries, temp-file hygiene), version negotiation that fails closed
 * in both directions with a diagnosis naming both revisions, torn
 * mid-stream frames surfacing as errors instead of hangs, malformed
 * batch requests answered with an error instead of killing the
 * daemon, and the served-batch contracts — byte identity against the
 * single-process pipeline under each A-stream policy, cache hits on
 * resubmission (mixed with misses in one wave, and after on-disk
 * corruption), cancellation revoking undispatched trials, and drain
 * rejecting new batches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "assembler/assembler.hh"
#include "common/cancel.hh"
#include "harness/fault_campaign.hh"
#include "harness/sim_runner.hh"
#include "harness/wire.hh"
#include "serve/client.hh"
#include "serve/result_cache.hh"
#include "serve/serve_proto.hh"
#include "serve/server.hh"

namespace slip::serve
{
namespace
{

namespace fs = std::filesystem;

/** A fresh scratch directory, removed on destruction. */
struct ScratchDir
{
    ScratchDir()
    {
        char tmpl[] = "/tmp/slip_serve_test.XXXXXX";
        path = mkdtemp(tmpl) ? tmpl : "";
        EXPECT_FALSE(path.empty());
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string path;
};

// ---------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------

TEST(ResultCache, KeyIsStableAndContentSensitive)
{
    const CacheKey a = cacheKeyOf("trial-bytes");
    const CacheKey b = cacheKeyOf("trial-bytes");
    const CacheKey c = cacheKeyOf("trial-byteS");
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a == c);
    EXPECT_EQ(a.hex().size(), 32u);
    EXPECT_NE(a.hex(), c.hex());
    // Pinned: fuzz trial keys, and so the entries existing caches
    // hold for them, depend on these values.
    EXPECT_EQ(a.hex(), "0eb18b035e4649d9e10cd4035615bfd1");
}

TEST(ResultCache, StoreThenLookupRoundTrips)
{
    ScratchDir dir;
    ResultCache cache(dir.path + "/cache", 100);
    const CacheKey key = cacheKeyOf("k1");

    std::string line;
    EXPECT_FALSE(cache.lookup(key, line));
    EXPECT_EQ(cache.misses(), 1u);

    cache.store(key, "{\"trial\":0}");
    EXPECT_TRUE(cache.lookup(key, line));
    EXPECT_EQ(line, "{\"trial\":0}");
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.stores(), 1u);
}

TEST(ResultCache, PersistsAcrossInstances)
{
    ScratchDir dir;
    const CacheKey key = cacheKeyOf("survives-restart");
    {
        ResultCache cache(dir.path + "/cache", 100);
        cache.store(key, "line-bytes");
    }
    ResultCache reopened(dir.path + "/cache", 100);
    std::string line;
    EXPECT_TRUE(reopened.lookup(key, line));
    EXPECT_EQ(line, "line-bytes");
}

TEST(ResultCache, EvictsOldestWhenOverCap)
{
    ScratchDir dir;
    ResultCache cache(dir.path + "/cache", 16);
    for (int i = 0; i < 32; ++i)
        cache.store(cacheKeyOf("entry-" + std::to_string(i)),
                    "line-" + std::to_string(i));
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_LE(cache.entries(), 16u);
}

TEST(ResultCache, EmptyRootDisablesEverything)
{
    ResultCache cache("", 100);
    EXPECT_FALSE(cache.enabled());
    const CacheKey key = cacheKeyOf("k");
    cache.store(key, "line");
    std::string line;
    EXPECT_FALSE(cache.lookup(key, line));
    EXPECT_EQ(cache.stores(), 0u);
}

TEST(ResultCache, CampaignKeySeparatesSeedTrialAndBackend)
{
    FaultCampaignConfig cfg;
    cfg.workloads = {"compress"};
    cfg.size = WorkloadSize::Test;
    cfg.trialsPerWorkload = 2;
    cfg.seed = 7;
    const std::vector<CampaignTrialSpec> specs =
        planCampaignTrials(cfg);
    ASSERT_GE(specs.size(), 2u);

    const CacheKey base = campaignTrialKey(cfg, specs[0], 0);
    EXPECT_EQ(base, campaignTrialKey(cfg, specs[0], 0));
    EXPECT_FALSE(base == campaignTrialKey(cfg, specs[0], 1));
    EXPECT_FALSE(base == campaignTrialKey(cfg, specs[1], 1));

    FaultCampaignConfig other = cfg;
    other.seed = 8;
    const std::vector<CampaignTrialSpec> otherSpecs =
        planCampaignTrials(other);
    EXPECT_FALSE(base == campaignTrialKey(other, otherSpecs[0], 0));

    FaultCampaignConfig replay = cfg;
    replay.params.detect.kind = DetectBackendKind::Replay;
    EXPECT_FALSE(base == campaignTrialKey(replay, specs[0], 0));

    // Isolation and worker count must NOT reach the key: byte
    // identity says they cannot change result bytes.
    FaultCampaignConfig forked = cfg;
    forked.isolation = IsolationMode::Fork;
    forked.workers = 7;
    EXPECT_EQ(base, campaignTrialKey(forked, specs[0], 0));
}

TEST(ResultCache, CampaignKeySeparatesAStreamPolicies)
{
    FaultCampaignConfig cfg;
    cfg.workloads = {"compress"};
    cfg.size = WorkloadSize::Test;
    cfg.trialsPerWorkload = 1;
    cfg.seed = 7;
    const std::vector<CampaignTrialSpec> specs =
        planCampaignTrials(cfg);
    ASSERT_GE(specs.size(), 1u);
    const CacheKey base = campaignTrialKey(cfg, specs[0], 0);

    // Same program, same seed, different shortening policy: the keys
    // must differ pairwise, or one policy's cached line would answer
    // for another's trial.
    std::vector<CacheKey> keys;
    for (unsigned i = 0; i < kNumAStreamPolicies; ++i) {
        FaultCampaignConfig alt = cfg;
        alt.params.aPolicy.kind = AStreamPolicyKind(i);
        keys.push_back(campaignTrialKey(alt, specs[0], 0));
    }
    EXPECT_EQ(keys[size_t(AStreamPolicyKind::IRRemoval)], base);
    for (size_t a = 0; a < keys.size(); ++a)
        for (size_t b = a + 1; b < keys.size(); ++b)
            EXPECT_FALSE(keys[a] == keys[b]) << a << " vs " << b;

    // And both policies really do land as two distinct cache entries.
    const CacheKey reliability =
        keys[size_t(AStreamPolicyKind::Reliability)];
    ScratchDir dir;
    ResultCache cache(dir.path + "/cache", 100);
    cache.store(base, "line-ir");
    cache.store(reliability, "line-reliability");
    std::string line;
    ASSERT_TRUE(cache.lookup(base, line));
    EXPECT_EQ(line, "line-ir");
    ASSERT_TRUE(cache.lookup(reliability, line));
    EXPECT_EQ(line, "line-reliability");
}

/** A ProgramCache-style entry for a hand-assembled program. */
ProgramCache::Entry
entryFor(Program program)
{
    const Hash128 digest = programImageDigest(program);
    return ProgramCache::Entry{std::move(program), "", 0, digest};
}

CacheKey
keyFor(const ProgramCache::Entry &entry)
{
    const FaultCampaignConfig cfg;
    const CampaignTrialSpec spec{&entry, "hand", {}, 100'000};
    return campaignTrialKey(cfg, spec, 0);
}

TEST(ResultCache, ImageDigestSeparatesProgramsThatDifferInOneThing)
{
    const std::string source = R"(
.data
value: .byte 7, 1
.text
start:
    la   t0, value
main:
    lb   a0, 0(t0)
    addi a0, a0, 1
    halt
)";
    const auto variant = [&](const std::string &from,
                             const std::string &to) {
        std::string s = source;
        const size_t at = s.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return s.replace(at, from.size(), to);
    };

    const ProgramCache::Entry base = entryFor(assemble(source));
    const ProgramCache::Entry again = entryFor(assemble(source));
    EXPECT_EQ(base.imageDigest, again.imageDigest);
    EXPECT_EQ(keyFor(base), keyFor(again));

    std::vector<ProgramCache::Entry> others;
    // One instruction.
    others.push_back(entryFor(
        assemble(variant("addi a0, a0, 1", "addi a0, a0, 2"))));
    // One data byte.
    others.push_back(
        entryFor(assemble(variant(".byte 7, 1", ".byte 7, 2"))));
    // The entry label only: the text image is unchanged.
    others.push_back(entryFor(assemble(variant("main:\n", "\n"))));
    // The same image rebuilt at another data base.
    const Program &p = base.program;
    others.push_back(entryFor(Program(p.rawTextWords(), p.dataBytes(),
                                      p.entry(), p.symbols(),
                                      p.textBase(),
                                      p.dataBase() + 0x1000)));
    EXPECT_EQ(others[2].program.rawTextWords(),
              base.program.rawTextWords());
    for (size_t i = 0; i < others.size(); ++i) {
        EXPECT_FALSE(others[i].imageDigest == base.imageDigest) << i;
        EXPECT_FALSE(keyFor(others[i]) == keyFor(base)) << i;
    }
}

TEST(ResultCache, DigestAndKeyComeFromContentNotAddress)
{
    FaultCampaignConfig cfg;
    cfg.workloads = {"compress"};
    cfg.size = WorkloadSize::Test;
    cfg.trialsPerWorkload = 1;
    cfg.seed = 7;
    const std::vector<CampaignTrialSpec> specs =
        planCampaignTrials(cfg);
    ASSERT_EQ(specs.size(), 1u);

    // Two more loads of the same workload, each in its own cache.
    ProgramCache first, second;
    const ProgramCache::Entry &a = first.get("compress", cfg.size);
    const ProgramCache::Entry &b = second.get("compress", cfg.size);
    ASSERT_NE(&a, &b);
    EXPECT_EQ(a.imageDigest, b.imageDigest);

    CampaignTrialSpec viaA = specs[0], viaB = specs[0];
    viaA.entry = &a;
    viaB.entry = &b;
    const CacheKey key = campaignTrialKey(cfg, specs[0], 0);
    EXPECT_EQ(campaignTrialKey(cfg, viaA, 0), key);
    EXPECT_EQ(campaignTrialKey(cfg, viaB, 0), key);
}

/** Write `bytes` to a new file at `path`. */
void
writeRaw(const std::string &path, const std::string &bytes)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

TEST(ResultCache, OpeningReapsOnlyTempFilesOfDeadWriters)
{
    ScratchDir dir;
    const std::string root = dir.path + "/cache";
    const CacheKey kept = cacheKeyOf("kept");
    {
        ResultCache cache(root, 100);
        cache.store(kept, "line");
    }

    // A pid that is certainly not running: a child's, once reaped.
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        _exit(0);
    ASSERT_EQ(waitpid(child, nullptr, 0), child);

    const std::string shard = root + "/" + kept.hex().substr(0, 2);
    const std::string stale =
        shard + "/" + kept.hex() + ".tmp." + std::to_string(child);
    const std::string live = shard + "/" + cacheKeyOf("busy").hex() +
                             ".tmp." + std::to_string(getpid());
    writeRaw(stale, "half a li");
    writeRaw(live, "half a li");
    // Oldest of all, so an eviction sweep that saw it would take it.
    fs::last_write_time(live, fs::file_time_type::clock::now() -
                                  std::chrono::hours(1));

    ResultCache reopened(root, 2);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(live));
    EXPECT_EQ(reopened.entries(), 1u);

    // Over the cap: the sweep evicts an entry, never the temp file.
    reopened.store(cacheKeyOf("second"), "line-2");
    reopened.store(cacheKeyOf("third"), "line-3");
    EXPECT_EQ(reopened.evictions(), 1u);
    EXPECT_EQ(reopened.entries(), 2u);
    EXPECT_TRUE(fs::exists(live));
}

TEST(ServeProto, BatchRequestRoundTripsPolicyParams)
{
    BatchRequest req;
    req.kind = BatchKind::Campaign;
    req.id = 3;
    req.name = "proto_policy";
    req.workloads = {"compress"};
    req.policy.kind = AStreamPolicyKind::Reliability;

    wire::Encoder enc;
    enc.put(req);
    wire::Decoder dec(enc.bytes());
    BatchRequest got;
    dec.get(got);
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(got.policy.kind, AStreamPolicyKind::Reliability);

    // The served trial runs under the requested policy, not the
    // server's default.
    const FaultCampaignConfig cfg = got.toCampaignConfig();
    EXPECT_EQ(cfg.params.aPolicy.kind, AStreamPolicyKind::Reliability);
}

// ---------------------------------------------------------------------
// Version negotiation — both directions fail closed with a diagnosis.
// ---------------------------------------------------------------------

TEST(ServeHandshake, OldClientIsRejectedWithBothVersions)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // A v1 client's Hello, stamped with the old header version.
    wire::Encoder hello;
    hello.putString("old-client");
    ASSERT_TRUE(wire::writeFrameVersion(fds[0], wire::MsgType::Hello, 1,
                                        hello.bytes()));

    std::string clientName, err;
    EXPECT_FALSE(serverHandshake(fds[1], "testd", clientName, err));
    EXPECT_NE(err.find("v1"), std::string::npos) << err;
    EXPECT_NE(err.find("v" + std::to_string(wire::kVersion)),
              std::string::npos)
        << err;

    // The server told the old client why, not just hung up: a
    // HelloReject frame naming the server's revision.
    wire::FrameInfo reply;
    ASSERT_EQ(wire::readFrameInfo(fds[0], reply), wire::ReadResult::Ok);
    EXPECT_EQ(reply.type, wire::MsgType::HelloReject);
    close(fds[0]);
    close(fds[1]);
}

TEST(ServeHandshake, OldServerIsRefusedWithBothVersions)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::string err;
    std::atomic<bool> ok{true};
    std::thread client([&] {
        if (clientHandshake(fds[0], "new-client", err))
            ok = false;
    });

    // The fake old server acks with a v1 header — the client must
    // refuse it even though the frame parses.
    wire::FrameInfo hello;
    ASSERT_EQ(wire::readFrameInfo(fds[1], hello), wire::ReadResult::Ok);
    EXPECT_EQ(hello.type, wire::MsgType::Hello);
    wire::Encoder ack;
    ack.putU16(1);
    ack.putString("oldd");
    ASSERT_TRUE(wire::writeFrameVersion(fds[1], wire::MsgType::HelloAck,
                                        1, ack.bytes()));
    client.join();
    EXPECT_TRUE(ok.load()) << "client accepted a v1 server";
    EXPECT_NE(err.find("v1"), std::string::npos) << err;
    EXPECT_NE(err.find("v" + std::to_string(wire::kVersion)),
              std::string::npos)
        << err;
    close(fds[0]);
    close(fds[1]);
}

TEST(ServeHandshake, RejectFromCurrentServerNamesItsVersion)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::string err;
    std::thread client([&] {
        EXPECT_FALSE(clientHandshake(fds[0], "client", err));
    });

    wire::FrameInfo hello;
    ASSERT_EQ(wire::readFrameInfo(fds[1], hello), wire::ReadResult::Ok);
    wire::Encoder reject;
    reject.putU16(wire::kVersion);
    reject.putString("draining");
    ASSERT_TRUE(wire::writeFrame(fds[1], wire::MsgType::HelloReject,
                                 reject.bytes()));
    client.join();
    EXPECT_NE(err.find("draining"), std::string::npos) << err;
    close(fds[0]);
    close(fds[1]);
}

// ---------------------------------------------------------------------
// Torn mid-stream frames: errors, never hangs or misparses.
// ---------------------------------------------------------------------

TEST(ServeFraming, TruncatedHeaderIsErrorNotHang)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Half a header, then close: the peer died mid-frame.
    const char partial[] = {0x10, 0x00, 0x00};
    ASSERT_EQ(write(fds[1], partial, sizeof(partial)),
              ssize_t(sizeof(partial)));
    close(fds[1]);

    wire::MsgType type;
    std::string payload;
    EXPECT_EQ(wire::readFrame(fds[0], type, payload),
              wire::ReadResult::Error);
    close(fds[0]);
}

TEST(ServeFraming, TruncatedPayloadIsErrorNotHang)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // A hand-built header promising 64 payload bytes, then only 3:
    // len | magic | version | type.
    std::string frame;
    const uint32_t len = 64;
    const uint32_t magic = 0x53504C57;
    const uint16_t version = wire::kVersion;
    frame.append(reinterpret_cast<const char *>(&len), 4);
    frame.append(reinterpret_cast<const char *>(&magic), 4);
    frame.append(reinterpret_cast<const char *>(&version), 2);
    frame.push_back(char(wire::MsgType::TrialResult));
    frame.append("abc"); // 3 of the promised 64 bytes
    ASSERT_EQ(write(fds[1], frame.data(), frame.size()),
              ssize_t(frame.size()));
    close(fds[1]);

    wire::MsgType type;
    std::string payload;
    EXPECT_EQ(wire::readFrame(fds[0], type, payload),
              wire::ReadResult::Error);
    close(fds[0]);
}

TEST(ServeFraming, MidStreamVersionDriftIsStrictlyRejected)
{
    // After the handshake every frame goes through the strict reader:
    // a frame stamped with a foreign version is an Error even though
    // readFrameInfo would have accepted it.
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    wire::Encoder enc;
    enc.putU64(1);
    ASSERT_TRUE(wire::writeFrameVersion(
        fds[1], wire::MsgType::CancelBatch, 1, enc.bytes()));
    close(fds[1]);

    wire::MsgType type;
    std::string payload;
    EXPECT_EQ(wire::readFrame(fds[0], type, payload),
              wire::ReadResult::Error);
    close(fds[0]);
}

// ---------------------------------------------------------------------
// Served batches end to end.
// ---------------------------------------------------------------------

struct ServerFixture : ::testing::Test
{
    void
    SetUp() override
    {
        opts.unixPath = dir.path + "/slipd.sock";
        opts.cacheDir = dir.path + "/cache";
        opts.workers = 2;
        server = std::make_unique<Server>(opts);
        std::string err;
        ASSERT_TRUE(server->start(err)) << err;
    }

    void
    TearDown() override
    {
        server->stop();
    }

    BatchRequest
    smallBatch() const
    {
        BatchRequest req;
        req.kind = BatchKind::Campaign;
        req.id = 1;
        req.name = "serve_test";
        req.workloads = {"compress"};
        req.size = WorkloadSize::Test;
        req.trialsPerWorkload = 4;
        req.seed = 41;
        return req;
    }

    /** The batch's lines through the single-process pipeline. */
    static std::vector<std::string>
    referenceLines(const BatchRequest &req)
    {
        const FaultCampaignConfig cfg = req.toCampaignConfig();
        const std::vector<CampaignTrialSpec> specs =
            planCampaignTrials(cfg);
        std::vector<std::string> lines;
        for (size_t i = 0; i < specs.size(); ++i) {
            CancelToken cancel;
            JobOutcome o;
            o.metrics = runCampaignTrial(cfg, specs[i], i, cancel);
            lines.push_back(campaignTrialLine(
                cfg, i, recordCampaignTrial(cfg, specs[i], i, o)));
        }
        return lines;
    }

    /** Each trial's cache key, in trial order. */
    static std::vector<CacheKey>
    trialKeys(const BatchRequest &req)
    {
        const FaultCampaignConfig cfg = req.toCampaignConfig();
        const std::vector<CampaignTrialSpec> specs =
            planCampaignTrials(cfg);
        std::vector<CacheKey> keys;
        for (size_t i = 0; i < specs.size(); ++i)
            keys.push_back(campaignTrialKey(cfg, specs[i], i));
        return keys;
    }

    std::string
    entryPath(const CacheKey &key) const
    {
        const std::string hex = key.hex();
        return opts.cacheDir + "/" + hex.substr(0, 2) + "/" + hex;
    }

    /** Submit and return (sorted journal, done). */
    std::string
    submit(const BatchRequest &req, BatchDoneMsg &done)
    {
        Client client;
        std::string err;
        EXPECT_TRUE(client.connect(opts.unixPath, err)) << err;
        EXPECT_TRUE(client.handshake("test-client", err)) << err;
        std::map<uint64_t, std::string> lines;
        EXPECT_TRUE(client.submitBatch(
            req,
            [&](const TrialResultMsg &m) {
                lines[m.index] = m.line;
                return true;
            },
            done, err))
            << err;
        std::string journal;
        for (const auto &[index, line] : lines) {
            journal += line;
            journal += '\n';
        }
        return journal;
    }

    ScratchDir dir;
    ServerOptions opts;
    std::unique_ptr<Server> server;
};

TEST_F(ServerFixture, BatchMatchesSingleProcessPipelineByteForByte)
{
    for (unsigned p = 0; p < kNumAStreamPolicies; ++p) {
        BatchRequest req = smallBatch();
        req.policy.kind = AStreamPolicyKind(p);
        SCOPED_TRACE(aStreamPolicyName(req.policy.kind));

        // The reference: the same batch through the local pipeline.
        const std::vector<std::string> lines = referenceLines(req);
        std::string expected;
        for (const std::string &line : lines)
            expected += line + '\n';

        BatchDoneMsg done;
        const std::string served = submit(req, done);
        EXPECT_EQ(done.status, BatchStatus::Ok);
        EXPECT_EQ(done.completed, lines.size());
        EXPECT_EQ(served, expected);
    }
}

TEST_F(ServerFixture, BenchBatchIsAZeroFaultCampaign)
{
    BatchRequest req = smallBatch();
    req.kind = BatchKind::Bench;
    req.trialsPerWorkload = 2;

    // The reference: the campaign's own specs with every plan dropped.
    const FaultCampaignConfig cfg = req.toCampaignConfig();
    std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
    std::string expected;
    for (size_t i = 0; i < specs.size(); ++i) {
        specs[i].plans.clear();
        CancelToken cancel;
        JobOutcome o;
        o.metrics = runCampaignTrial(cfg, specs[i], i, cancel);
        expected += campaignTrialLine(
                        cfg, i, recordCampaignTrial(cfg, specs[i], i, o)) +
                    '\n';
    }
    EXPECT_NE(expected.find("\"planned\":0,"), std::string::npos);

    BatchDoneMsg done;
    EXPECT_EQ(submit(req, done), expected);
    EXPECT_EQ(done.status, BatchStatus::Ok);
    EXPECT_EQ(done.completed, 2u);
}

TEST_F(ServerFixture, ResubmittedBatchIsServedFromCache)
{
    const BatchRequest req = smallBatch();
    BatchDoneMsg first;
    const std::string cold = submit(req, first);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.cacheMisses, first.completed);

    BatchDoneMsg second;
    const std::string warm = submit(req, second);
    EXPECT_EQ(second.cacheHits, second.completed);
    EXPECT_EQ(second.cacheMisses, 0u);
    EXPECT_EQ(warm, cold);

    const ServeStats stats = server->statsSnapshot();
    EXPECT_EQ(stats.trialsCached, second.completed);
}

TEST_F(ServerFixture, CorruptEntriesAreResimulatedNotServed)
{
    BatchRequest req = smallBatch();
    req.trialsPerWorkload = 6;
    BatchDoneMsg cold;
    const std::string coldJournal = submit(req, cold);
    ASSERT_EQ(cold.cacheMisses, 6u);

    // Damage four of the six entries on disk, each a different way.
    const std::vector<CacheKey> keys = trialKeys(req);
    const auto readFile = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    std::string flipped = readFile(entryPath(keys[0]));
    ASSERT_GT(flipped.size(), 40u);
    flipped.back() ^= 0x01; // one byte of the line
    writeRaw(entryPath(keys[0]), flipped);
    const std::string whole = readFile(entryPath(keys[1]));
    writeRaw(entryPath(keys[1]), whole.substr(0, whole.size() / 2));
    writeRaw(entryPath(keys[2]), "");
    // The header's key field (bytes 8..24) now names trial 0: a
    // well-formed entry, filed under the wrong key.
    std::string misfiled = readFile(entryPath(keys[3]));
    std::memcpy(misfiled.data() + 8, &keys[0].hi, 8);
    std::memcpy(misfiled.data() + 16, &keys[0].lo, 8);
    writeRaw(entryPath(keys[3]), misfiled);

    BatchDoneMsg second;
    EXPECT_EQ(submit(req, second), coldJournal);
    EXPECT_EQ(second.status, BatchStatus::Ok);
    EXPECT_EQ(second.cacheMisses, 4u);
    EXPECT_EQ(second.cacheHits, 2u);
    EXPECT_EQ(server->cache().corrupt(), 4u);

    // The re-simulated lines took the damaged entries' places.
    BatchDoneMsg third;
    EXPECT_EQ(submit(req, third), coldJournal);
    EXPECT_EQ(third.cacheHits, 6u);
    EXPECT_EQ(server->cache().corrupt(), 4u);
}

/** A server that dispatches two trials a wave. */
struct TwoTrialWaveFixture : ServerFixture
{
    void
    SetUp() override
    {
        opts.waveSize = 2;
        ServerFixture::SetUp();
    }
};

TEST_F(TwoTrialWaveFixture, HitsAndMissesInOneWaveEachArriveOnce)
{
    BatchRequest req = smallBatch();
    req.trialsPerWorkload = 6;
    const std::vector<std::string> lines = referenceLines(req);
    const std::vector<CacheKey> keys = trialKeys(req);
    ASSERT_EQ(lines.size(), 6u);
    // Every wave holds one stored trial and one to simulate.
    for (size_t i = 0; i < lines.size(); i += 2)
        server->cache().store(keys[i], lines[i]);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(opts.unixPath, err)) << err;
    ASSERT_TRUE(client.handshake("wave-client", err)) << err;
    std::vector<unsigned> arrivals(lines.size(), 0);
    BatchDoneMsg done;
    ASSERT_TRUE(client.submitBatch(
        req,
        [&](const TrialResultMsg &m) {
            EXPECT_LT(m.index, lines.size());
            if (m.index >= lines.size())
                return true;
            ++arrivals[m.index];
            EXPECT_EQ(m.fromCache, m.index % 2 == 0) << m.index;
            EXPECT_EQ(m.line, lines[m.index]) << m.index;
            return true;
        },
        done, err))
        << err;
    for (size_t i = 0; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i], 1u) << i;
    EXPECT_EQ(done.status, BatchStatus::Ok);
    EXPECT_EQ(done.completed, 6u);
    EXPECT_EQ(done.cacheHits, 3u);
    EXPECT_EQ(done.cacheMisses, 3u);
}

TEST_F(ServerFixture, TwoPoliciesOnSameProgramDoNotShareCacheEntries)
{
    // Same program, same seed, same trial count — only the A-stream
    // policy differs. If the policy were missing from the cache key,
    // the second batch would be served the first batch's lines.
    BatchRequest ir = smallBatch();
    BatchDoneMsg first;
    const std::string irJournal = submit(ir, first);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.cacheMisses, first.completed);

    BatchRequest reliability = smallBatch();
    reliability.policy.kind = AStreamPolicyKind::Reliability;
    BatchDoneMsg second;
    const std::string relJournal = submit(reliability, second);
    EXPECT_EQ(second.cacheHits, 0u) << "policy aliased in the cache";
    EXPECT_EQ(second.cacheMisses, second.completed);

    // The journals carry their own policy tags, so even identical
    // outcomes cannot produce identical bytes.
    EXPECT_NE(irJournal.find("\"policy\":\"ir\""), std::string::npos);
    EXPECT_NE(relJournal.find("\"policy\":\"reliability\""),
              std::string::npos);
    EXPECT_NE(irJournal, relJournal);

    // Resubmitting each batch now hits its own entry.
    BatchDoneMsg warm;
    EXPECT_EQ(submit(ir, warm), irJournal);
    EXPECT_EQ(warm.cacheHits, warm.completed);
    EXPECT_EQ(submit(reliability, warm), relJournal);
    EXPECT_EQ(warm.cacheHits, warm.completed);
}

TEST_F(ServerFixture, MalformedBatchRequestIsAnErrorNotACrash)
{
    // A raw, handshaken connection: the client library only sends
    // well-formed requests.
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts.unixPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)),
              0);
    std::string err;
    ASSERT_TRUE(clientHandshake(fd, "raw-client", err)) << err;

    // Send one request payload; count the trial frames until the
    // BatchDone that ends the batch.
    uint64_t trials = 0;
    const auto submitRaw = [&](const std::string &payload) {
        BatchDoneMsg done;
        trials = 0;
        EXPECT_TRUE(wire::writeFrame(fd, wire::MsgType::BatchRequest,
                                     payload));
        for (;;) {
            wire::MsgType type;
            std::string reply;
            if (wire::readFrame(fd, type, reply) != wire::ReadResult::Ok) {
                ADD_FAILURE() << "server closed the connection";
                return done;
            }
            if (type == wire::MsgType::BatchDone) {
                wire::Decoder dec(reply);
                dec.get(done);
                return done;
            }
            ++trials;
        }
    };

    wire::Encoder valid;
    valid.put(smallBatch());
    const std::string &bytes = valid.bytes();

    // Truncated: the decoder runs out of bytes mid-request.
    BatchDoneMsg done = submitRaw(bytes.substr(0, bytes.size() / 2));
    EXPECT_EQ(done.status, BatchStatus::Error);
    EXPECT_EQ(trials, 0u);

    // Policy byte 2 names no policy. The policy byte is the one byte
    // where an `ir` and a `reliability` request differ.
    BatchRequest reliability = smallBatch();
    reliability.policy.kind = AStreamPolicyKind::Reliability;
    wire::Encoder other;
    other.put(reliability);
    ASSERT_EQ(other.bytes().size(), bytes.size());
    const size_t policyAt =
        std::mismatch(bytes.begin(), bytes.end(), other.bytes().begin())
            .first -
        bytes.begin();
    ASSERT_LT(policyAt, bytes.size());
    std::string badPolicy = bytes;
    badPolicy[policyAt] = 2;
    done = submitRaw(badPolicy);
    EXPECT_EQ(done.status, BatchStatus::Error);
    EXPECT_NE(done.error.find("A-stream policy byte 2"),
              std::string::npos)
        << done.error;
    EXPECT_EQ(trials, 0u);

    // The daemon survived both, and this connection is still served.
    done = submitRaw(bytes);
    EXPECT_EQ(done.status, BatchStatus::Ok) << done.error;
    EXPECT_EQ(done.completed, 4u);
    EXPECT_EQ(trials, 4u);
    close(fd);
}

TEST_F(ServerFixture, FuzzBatchStreamsSeedWindow)
{
    BatchRequest req;
    req.kind = BatchKind::Fuzz;
    req.id = 9;
    req.name = "serve_fuzz";
    req.seedBegin = 0;
    req.seedEnd = 3;
    BatchDoneMsg done;
    const std::string journal = submit(req, done);
    EXPECT_EQ(done.status, BatchStatus::Ok);
    EXPECT_EQ(done.completed, 3u);
    // Pinned bytes: the cache and every client hold exactly these
    // lines, whichever executor ran the seeds.
    EXPECT_EQ(journal,
              "{\"campaign\":\"serve_fuzz\",\"kind\":\"fuzz\",\"seed\":0,"
              "\"status\":\"ok\",\"diverged\":0}\n"
              "{\"campaign\":\"serve_fuzz\",\"kind\":\"fuzz\",\"seed\":1,"
              "\"status\":\"ok\",\"diverged\":0}\n"
              "{\"campaign\":\"serve_fuzz\",\"kind\":\"fuzz\",\"seed\":2,"
              "\"status\":\"ok\",\"diverged\":0}\n");

    BatchDoneMsg warm;
    EXPECT_EQ(submit(req, warm), journal);
    EXPECT_EQ(warm.cacheHits, 3u);
}

TEST_F(ServerFixture, FuzzBatchEscapesTheClientsName)
{
    // A name from the socket must not break the line it lands in: a
    // quote or a newline pasted raw would split or corrupt every line.
    BatchRequest req;
    req.kind = BatchKind::Fuzz;
    req.id = 10;
    req.name = "x\"y\nz";
    req.seedBegin = 0;
    req.seedEnd = 2;
    BatchDoneMsg done;
    const std::string journal = submit(req, done);
    EXPECT_EQ(done.status, BatchStatus::Ok);
    EXPECT_EQ(done.completed, 2u);
    std::vector<std::string> lines;
    size_t from = 0;
    for (size_t nl; (nl = journal.find('\n', from)) != std::string::npos;
         from = nl + 1)
        lines.push_back(journal.substr(from, nl - from));
    ASSERT_EQ(lines.size(), 2u) << journal;
    for (const std::string &line : lines) {
        EXPECT_EQ(line.rfind("{\"campaign\":\"x\\\"y\\nz\",", 0), 0u)
            << line;
        EXPECT_EQ(line.back(), '}') << line;
    }
}

TEST_F(ServerFixture, DrainRejectsNewBatches)
{
    server->beginDrain();
    BatchDoneMsg done;
    submit(smallBatch(), done);
    EXPECT_EQ(done.status, BatchStatus::Rejected);
    EXPECT_EQ(done.completed, 0u);
    EXPECT_NE(done.error.find("draining"), std::string::npos)
        << done.error;
}

TEST(ServeCancel, CancelRevokesUndispatchedTrials)
{
    // Wave size 1 so a cancel sent after the first result can still
    // revoke the tail of the batch.
    ScratchDir dir;
    ServerOptions opts;
    opts.unixPath = dir.path + "/slipd.sock";
    opts.cacheDir = ""; // no cache: every trial really runs
    opts.workers = 1;
    opts.waveSize = 1;
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    BatchRequest req;
    req.kind = BatchKind::Campaign;
    req.id = 5;
    req.name = "serve_cancel";
    req.workloads = {"compress"};
    req.size = WorkloadSize::Test;
    req.trialsPerWorkload = 8;
    req.seed = 17;

    Client client;
    ASSERT_TRUE(client.connect(opts.unixPath, err)) << err;
    ASSERT_TRUE(client.handshake("canceller", err)) << err;
    BatchDoneMsg done;
    unsigned received = 0;
    ASSERT_TRUE(client.submitBatch(
        req,
        [&](const TrialResultMsg &) {
            return ++received > 1; // cancel after the first result
        },
        done, err))
        << err;
    EXPECT_EQ(done.status, BatchStatus::Cancelled);
    EXPECT_GT(done.revoked, 0u);
    EXPECT_LT(done.completed, 8u);
    EXPECT_EQ(done.completed + done.revoked, 8u);

    const ServeStats stats = server.statsSnapshot();
    EXPECT_EQ(stats.trialsRevoked, done.revoked);
    server.stop();
}

} // namespace
} // namespace slip::serve
