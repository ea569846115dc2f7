/**
 * slipc: streaming JSONL client for the slipd campaign server.
 *
 *   slipc --connect unix:/tmp/slipd.sock campaign --trials 8 \
 *         --workloads compress,li --seed 7
 *   slipc --connect unix:/tmp/slipd.sock bench --workloads compress
 *   slipc --connect unix:/tmp/slipd.sock fuzz --seeds 0:64
 *   slipc --connect unix:/tmp/slipd.sock stats
 *   slipc --connect unix:/tmp/slipd.sock drain
 *
 * Result lines stream to stdout. They arrive in completion order but
 * are printed sorted by trial index at batch end (the canonical
 * journal order), so `slipc campaign ... > out.jsonl` compares
 * byte-for-byte against a local slip_campaign journal for the same
 * config. `--no-sort` streams lines as they arrive instead. The
 * batch summary goes to stderr.
 *
 * Exit codes: 0 = batch ok, 1 = transport/handshake error, 2 = usage
 * error, 3 = batch cancelled, 4 = batch rejected (server draining),
 * 5 = server-side batch error.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "serve/client.hh"

namespace
{

using namespace slip;

void
usage(std::ostream &os)
{
    os << "usage: slipc [--connect ADDR] COMMAND [options]\n"
          "  ADDR: unix:PATH (default unix:/tmp/slipd.sock) or "
          "HOST:PORT\n"
          "commands:\n"
          "  campaign   fault-injection campaign batch\n"
          "    --name NAME --workloads A,B --size S --trials N\n"
          "    --seed N --min-faults N --max-faults N --reliable\n"
          "    --detect slipstream|replay|checker\n"
          "    --policy ir|reliability\n"
          "  bench      fault-free performance sweep\n"
          "    --name NAME --workloads A,B --size S --trials N\n"
          "  fuzz       differential-fuzz seed window\n"
          "    --name NAME --seeds BEGIN:END\n"
          "  stats      print server lifetime counters\n"
          "  drain      ask the server to drain and exit\n"
          "common batch options:\n"
          "    --batch-id N     client-chosen id (default 1)\n"
          "    --no-sort        stream results unsorted\n"
          "    --cancel-after N cancel the batch after N results\n"
          "  -h, --help\n";
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string address = "unix:/tmp/slipd.sock";
    std::string command;
    serve::BatchRequest req;
    req.id = 1;
    bool sortResults = true;
    uint64_t cancelAfter = 0; // 0 = never

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "slipc: " << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (arg == "--connect") {
            address = value("--connect");
        } else if (arg == "campaign" || arg == "bench" ||
                   arg == "fuzz" || arg == "stats" ||
                   arg == "drain") {
            if (!command.empty()) {
                std::cerr << "slipc: one command at a time\n";
                return 2;
            }
            command = arg;
            if (arg == "campaign")
                req.kind = serve::BatchKind::Campaign;
            else if (arg == "bench")
                req.kind = serve::BatchKind::Bench;
            else if (arg == "fuzz")
                req.kind = serve::BatchKind::Fuzz;
        } else if (arg == "--name") {
            req.name = value("--name");
        } else if (arg == "--workloads") {
            req.workloads = splitCsv(value("--workloads"));
        } else if (arg == "--size") {
            const std::string v = value("--size");
            if (v == "test") {
                req.size = WorkloadSize::Test;
            } else if (v == "small") {
                req.size = WorkloadSize::Small;
            } else if (v == "default" || v == "full") {
                req.size = WorkloadSize::Default;
            } else {
                std::cerr << "slipc: bad --size '" << v
                          << "' (want test|small|default)\n";
                return 2;
            }
        } else if (arg == "--trials") {
            if (!parseUnsigned(value("--trials"), req.trialsPerWorkload) ||
                req.trialsPerWorkload == 0) {
                std::cerr << "slipc: bad --trials\n";
                return 2;
            }
        } else if (arg == "--seed") {
            if (!parseUnsigned(value("--seed"), req.seed)) {
                std::cerr << "slipc: bad --seed\n";
                return 2;
            }
        } else if (arg == "--min-faults") {
            if (!parseUnsigned(value("--min-faults"), req.minFaultsPerTrial) ||
                req.minFaultsPerTrial == 0) {
                std::cerr << "slipc: bad --min-faults\n";
                return 2;
            }
        } else if (arg == "--max-faults") {
            if (!parseUnsigned(value("--max-faults"), req.maxFaultsPerTrial) ||
                req.maxFaultsPerTrial == 0) {
                std::cerr << "slipc: bad --max-faults\n";
                return 2;
            }
        } else if (arg == "--reliable") {
            req.reliableMode = true;
        } else if (arg == "--detect") {
            const std::string v = value("--detect");
            if (!parseDetectBackend(v, req.detect.kind)) {
                std::cerr << "slipc: bad --detect '" << v
                          << "' (want slipstream|replay|checker)\n";
                return 2;
            }
        } else if (arg == "--policy") {
            const std::string v = value("--policy");
            if (!parseAStreamPolicy(v, req.policy.kind)) {
                std::cerr << "slipc: bad --policy '" << v
                          << "' (want ir|reliability)\n";
                return 2;
            }
        } else if (arg == "--seeds") {
            const std::string v = value("--seeds");
            const size_t colon = v.find(':');
            uint64_t b = 0, e = 0;
            if (colon == std::string::npos ||
                !parseUnsigned(v.substr(0, colon), b) ||
                !parseUnsigned(v.substr(colon + 1), e) || e <= b) {
                std::cerr << "slipc: bad --seeds '" << v
                          << "' (want BEGIN:END, END > BEGIN)\n";
                return 2;
            }
            req.seedBegin = b;
            req.seedEnd = e;
        } else if (arg == "--batch-id") {
            if (!parseUnsigned(value("--batch-id"), req.id)) {
                std::cerr << "slipc: bad --batch-id\n";
                return 2;
            }
        } else if (arg == "--no-sort") {
            sortResults = false;
        } else if (arg == "--cancel-after") {
            if (!parseUnsigned(value("--cancel-after"), cancelAfter) ||
                cancelAfter == 0) {
                std::cerr << "slipc: bad --cancel-after\n";
                return 2;
            }
        } else {
            std::cerr << "slipc: unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (command.empty()) {
        std::cerr << "slipc: no command\n";
        usage(std::cerr);
        return 2;
    }
    if (command == "fuzz" && req.seedEnd <= req.seedBegin) {
        std::cerr << "slipc: fuzz needs --seeds BEGIN:END\n";
        return 2;
    }

    serve::Client client;
    std::string err;
    if (!client.connect(address, err) ||
        !client.handshake("slipc", err)) {
        std::cerr << "slipc: " << err << "\n";
        return 1;
    }

    if (command == "stats") {
        serve::ServeStats s;
        if (!client.queryStats(s, err)) {
            std::cerr << "slipc: " << err << "\n";
            return 1;
        }
        std::cout << "connections=" << s.connections << " batches="
                  << s.batches << " trials_run=" << s.trialsRun
                  << " trials_cached=" << s.trialsCached
                  << " trials_revoked=" << s.trialsRevoked
                  << " cache_hits=" << s.cacheHits << " cache_misses="
                  << s.cacheMisses << " cache_stores="
                  << s.cacheStores << " cache_evictions="
                  << s.cacheEvictions << " draining="
                  << (s.draining ? 1 : 0) << "\n";
        return 0;
    }
    if (command == "drain") {
        if (!client.requestDrain(err)) {
            std::cerr << "slipc: " << err << "\n";
            return 1;
        }
        std::cerr << "slipc: server draining\n";
        return 0;
    }

    std::vector<std::pair<uint64_t, std::string>> sorted;
    uint64_t received = 0;
    serve::BatchDoneMsg done;
    const bool finished = client.submitBatch(
        req,
        [&](const serve::TrialResultMsg &m) {
            ++received;
            if (sortResults)
                sorted.emplace_back(m.index, m.line);
            else
                std::cout << m.line << "\n";
            return !(cancelAfter && received >= cancelAfter);
        },
        done, err);
    if (!finished) {
        std::cerr << "slipc: " << err << "\n";
        return 1;
    }

    if (sortResults) {
        std::sort(sorted.begin(), sorted.end());
        for (const auto &[index, line] : sorted)
            std::cout << line << "\n";
    }
    std::cout << std::flush;

    std::cerr << "slipc: batch " << done.batchId << " "
              << serve::batchStatusName(done.status) << ": "
              << done.completed << " completed, " << done.revoked
              << " revoked, cache " << done.cacheHits << " hit / "
              << done.cacheMisses << " miss";
    if (!done.error.empty())
        std::cerr << " (" << done.error << ")";
    std::cerr << "\n";

    switch (done.status) {
      case serve::BatchStatus::Ok:
        return 0;
      case serve::BatchStatus::Cancelled:
        return 3;
      case serve::BatchStatus::Rejected:
        return 4;
      case serve::BatchStatus::Error:
        return 5;
    }
    return 1;
}
