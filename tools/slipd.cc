/**
 * slipd: the persistent simulation-as-a-service daemon. Listens on a
 * Unix-domain socket, accepts trial batches from slipc clients, runs
 * them on SimJobRunner (threads, or crash-isolated worker processes
 * under --isolation fork), streams JSONL results, and caches every
 * result content-addressed on disk so repeated batches — and batches
 * re-submitted after a restart — answer without re-simulating.
 *
 *   slipd --socket /tmp/slipd.sock --cache results/serve_cache
 *   slipd --socket /tmp/slipd.sock --workers 8
 *
 * SIGTERM/SIGINT drain gracefully: in-flight batches finish and
 * stream their BatchDone, new batches are rejected, then the daemon
 * prints its lifetime stats and exits 0. A client's DrainRequest
 * frame does the same remotely.
 *
 * Exit codes: 0 = clean shutdown (drained), 2 = usage/startup error.
 */

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "serve/server.hh"

namespace
{

using namespace slip;

int g_signalPipe[2] = {-1, -1};

extern "C" void
onTermSignal(int)
{
    // Async-signal-safe: one byte wakes the main loop.
    const ssize_t n = ::write(g_signalPipe[1], "x", 1);
    (void)n;
}

void
usage(std::ostream &os)
{
    os << "usage: slipd [options]\n"
          "  --socket PATH    unix-domain listen socket "
          "(default /tmp/slipd.sock)\n"
          "  --cache DIR      content-addressed result cache "
          "(default results/serve_cache;\n"
          "                   'none' disables)\n"
          "  --cache-max N    cache entry cap "
          "(default 65536)\n"
          "  --workers N      trial workers per batch "
          "(default $SLIPSTREAM_JOBS);\n"
          "                   a batch dispatches 4 trials per worker "
          "per wave\n"
          "  --isolation M    trial sandboxing: none | fork "
          "(default $SLIPSTREAM_ISOLATION)\n"
          "  --name NAME      server name in the handshake "
          "(default slipd)\n"
          "  -h, --help\n";
}

int
run(int argc, char **argv)
{
    serve::ServerOptions opts;
    opts.unixPath = "/tmp/slipd.sock";
    opts.cacheDir = "results/serve_cache";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "slipd: " << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (arg == "--socket") {
            opts.unixPath = value("--socket");
        } else if (arg == "--cache") {
            opts.cacheDir = value("--cache");
            if (opts.cacheDir == "none")
                opts.cacheDir.clear();
        } else if (arg == "--cache-max") {
            if (!parseUnsigned(value("--cache-max"), opts.cacheMax) ||
                opts.cacheMax == 0) {
                std::cerr << "slipd: bad --cache-max\n";
                return 2;
            }
        } else if (arg == "--workers") {
            if (!parseUnsigned(value("--workers"), opts.workers) ||
                opts.workers == 0) {
                std::cerr << "slipd: bad --workers\n";
                return 2;
            }
        } else if (arg == "--isolation") {
            const std::string v = value("--isolation");
            if (!parseIsolationMode(v, opts.isolation)) {
                std::cerr << "slipd: bad --isolation '" << v
                          << "' (want none|fork)\n";
                return 2;
            }
        } else if (arg == "--name") {
            opts.name = value("--name");
        } else {
            std::cerr << "slipd: unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    if (::pipe(g_signalPipe) != 0) {
        std::cerr << "slipd: pipe: " << std::strerror(errno) << "\n";
        return 2;
    }
    struct sigaction sa = {};
    sa.sa_handler = onTermSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    serve::Server server(opts);
    std::string err;
    if (!server.start(err)) {
        std::cerr << "slipd: " << err << "\n";
        return 2;
    }
    std::cout << "slipd: listening on " << opts.unixPath << " (cache: "
              << (server.cache().enabled() ? server.cache().root()
                                           : std::string("disabled"))
              << ", isolation: " << isolationModeName(opts.isolation)
              << ")\n"
              << std::flush;

    // Block until a termination signal lands.
    char byte;
    while (::read(g_signalPipe[0], &byte, 1) < 0 && errno == EINTR) {
    }

    std::cout << "slipd: signal received — draining\n" << std::flush;
    server.beginDrain();
    server.waitIdle();
    server.stop();

    const serve::ServeStats s = server.statsSnapshot();
    std::cout << "slipd: drained. connections=" << s.connections
              << " batches=" << s.batches << " trials_run="
              << s.trialsRun << " trials_cached=" << s.trialsCached
              << " trials_revoked=" << s.trialsRevoked
              << " cache_hits=" << s.cacheHits << " cache_misses="
              << s.cacheMisses << " cache_stores=" << s.cacheStores
              << " cache_evictions=" << s.cacheEvictions << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
