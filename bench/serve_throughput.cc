/**
 * serve_throughput: the slipd acceptance bench. Starts an in-process
 * campaign server on a throwaway Unix socket with a fresh result
 * cache, then drives it with four concurrent clients, each submitting
 * its own campaign batch:
 *
 *  - round `cold`: every trial misses the cache and executes on the
 *    shared worker pool. Each client's sorted result stream must be
 *    byte-identical to the canonical journal the single-process
 *    pipeline (planCampaignTrials -> runCampaignTrial ->
 *    recordCampaignTrial -> campaignTrialLine) produces for the same
 *    batch — worker count, client count, and completion order must
 *    not leak into result bytes.
 *
 *  - round `warm`: the same batches again. At least 90% of trials
 *    must be answered from the content-addressed cache (in practice
 *    100%: the key covers everything that shapes result bytes).
 *
 * Prints one table row per round with throughput and cache hit/miss
 * counts, and exits non-zero on any identity or cache-rate failure —
 * CI runs this as the serve acceptance gate.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.hh"
#include "bench/bench_timing.hh"
#include "common/cancel.hh"
#include "harness/fault_campaign.hh"
#include "serve/client.hh"
#include "serve/server.hh"

using namespace slip;
using namespace slip::serve;

namespace
{

/** The batch client `c` submits (same bytes both rounds). */
BatchRequest
clientBatch(unsigned c, WorkloadSize size, unsigned trials)
{
    static const char *kNames[] = {"compress", "li", "jpeg", "go",
                                   "gcc",      "perl", "vortex",
                                   "m88ksim"};
    BatchRequest req;
    req.id = 100 + c;
    req.name = "serve_tput_" + std::to_string(c);
    req.workloads = {kNames[c % 8]};
    req.size = size;
    req.trialsPerWorkload = trials;
    req.minFaultsPerTrial = 1;
    req.maxFaultsPerTrial = 2;
    req.seed = 93000 + c;
    return req;
}

/**
 * The canonical journal for one batch, computed without the server:
 * plan, execute serially in-process, record, render, join with '\n'.
 */
std::string
referenceJournal(const BatchRequest &req)
{
    const FaultCampaignConfig cfg = req.toCampaignConfig();
    const std::vector<CampaignTrialSpec> specs =
        planCampaignTrials(cfg);
    std::string out;
    for (size_t i = 0; i < specs.size(); ++i) {
        CancelToken cancel;
        JobOutcome o;
        try {
            o.metrics = runCampaignTrial(cfg, specs[i], i, cancel);
        } catch (const std::exception &e) {
            o.status = JobOutcome::Status::Error;
            o.errorMessage = e.what();
        }
        const TrialRecord t = recordCampaignTrial(cfg, specs[i], i, o);
        out += campaignTrialLine(cfg, i, t);
        out += '\n';
    }
    return out;
}

struct ClientOutcome
{
    bool ok = false;
    std::string journal; // sorted by trial index, '\n'-joined
    BatchDoneMsg done;
    std::string err;
};

/** Connect, submit, sort by index, summarize. */
ClientOutcome
runClient(const std::string &socketPath, const BatchRequest &req)
{
    ClientOutcome out;
    Client client;
    if (!client.connect(socketPath, out.err) ||
        !client.handshake(req.name, out.err))
        return out;
    std::map<uint64_t, std::string> lines;
    const bool finished = client.submitBatch(
        req,
        [&](const TrialResultMsg &m) {
            lines[m.index] = m.line;
            return true;
        },
        out.done, out.err);
    if (!finished)
        return out;
    for (const auto &[index, line] : lines) {
        out.journal += line;
        out.journal += '\n';
    }
    out.ok = out.done.status == BatchStatus::Ok;
    if (!out.ok)
        out.err = "batch ended " +
                  std::string(batchStatusName(out.done.status)) + ": " +
                  out.done.error;
    return out;
}

int
run(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (!bench::applyTraceArg(argv[i])) {
            std::cerr << "usage: serve_throughput [--trace[=cats]]\n";
            return 2;
        }

    bench::banner("serve_throughput: slipd campaign-server acceptance",
                  "infrastructure bench (no paper artifact): N "
                  "concurrent clients vs one server, byte-identity + "
                  "cache hit-rate gates");

    const WorkloadSize size = bench::benchSize();
    constexpr unsigned clients = 4;
    const unsigned trials = size == WorkloadSize::Test    ? 2
                            : size == WorkloadSize::Small ? 4
                                                          : 8;

    // Throwaway socket + cache, wiped on every run so round `cold`
    // really is cold.
    char dirTemplate[] = "/tmp/serve_throughput.XXXXXX";
    if (!mkdtemp(dirTemplate)) {
        std::cerr << "serve_throughput: mkdtemp failed\n";
        return 1;
    }
    const std::string scratch = dirTemplate;
    const std::string socketPath = scratch + "/slipd.sock";

    ServerOptions opts;
    opts.unixPath = socketPath;
    opts.cacheDir = scratch + "/cache";
    opts.name = "serve_throughput";
    Server server(opts);
    std::string err;
    if (!server.start(err)) {
        std::cerr << "serve_throughput: server start failed: " << err
                  << "\n";
        return 1;
    }

    std::vector<BatchRequest> batches;
    for (unsigned c = 0; c < clients; ++c)
        batches.push_back(clientBatch(c, size, trials));

    std::cout << "reference: " << clients
              << " batches through the single-process pipeline...\n";
    std::vector<std::string> expected(clients);
    for (unsigned c = 0; c < clients; ++c)
        expected[c] = referenceJournal(batches[c]);

    Table table({"round", "clients", "trials", "seconds", "trials/s",
                 "cache-hit", "cache-miss", "identical"});
    bool failed = false;

    for (const char *round : {"cold", "warm"}) {
        bench::Timing timing(std::string("serve_throughput_") + round,
                             defaultJobs());
        std::vector<ClientOutcome> results(clients);
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back([&, c] {
                results[c] = runClient(socketPath, batches[c]);
            });
        for (std::thread &t : threads)
            t.join();
        const double seconds = timing.elapsedSeconds();

        uint64_t completed = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        bool identical = true;
        for (unsigned c = 0; c < clients; ++c) {
            const ClientOutcome &r = results[c];
            if (!r.ok) {
                std::cerr << "FAIL [" << round << "] client " << c
                          << ": " << r.err << "\n";
                identical = false;
                continue;
            }
            completed += r.done.completed;
            hits += r.done.cacheHits;
            misses += r.done.cacheMisses;
            if (r.journal != expected[c]) {
                std::cerr << "FAIL [" << round << "] client " << c
                          << ": served journal differs from the "
                             "single-process pipeline\n";
                identical = false;
            }
        }
        table.addRow({round, Table::count(clients),
                      Table::count(completed), Table::fixed(seconds, 2),
                      Table::fixed(seconds > 0.0 ? double(completed) /
                                                       seconds
                                                 : 0.0,
                                   1),
                      Table::count(hits), Table::count(misses),
                      identical ? "yes" : "NO"});
        if (!identical)
            failed = true;
        if (std::string(round) == "warm" && completed > 0 &&
            double(hits) < 0.9 * double(completed)) {
            std::cerr << "FAIL [warm] cache hit rate " << hits << "/"
                      << completed << " below the 90% gate\n";
            failed = true;
        }
    }

    table.print(std::cout);
    const ServeStats stats = server.statsSnapshot();
    std::cout << "\nserver: batches=" << stats.batches
              << " trials_run=" << stats.trialsRun
              << " trials_cached=" << stats.trialsCached
              << " cache_hits=" << stats.cacheHits
              << " cache_misses=" << stats.cacheMisses
              << " cache_stores=" << stats.cacheStores
              << " cache_evictions=" << stats.cacheEvictions << "\n";

    server.beginDrain();
    server.waitIdle();
    server.stop();
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);

    std::cout << (failed ? "\nRESULT: FAIL\n" : "\nRESULT: PASS\n");
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
