/**
 * ssir_fuzz: differential fuzzing for the SSIR simulation stack.
 *
 * Generates seeded random SSIR programs and runs each through the
 * three-way co-simulation oracle (functional reference, slipstream
 * dual-core, forced degraded R-only), with runtime invariant checkers
 * enabled. Divergent programs are greedily minimized and written out
 * as self-contained repro bundles.
 *
 *   ssir_fuzz --seeds 0:500                    # a seed window
 *   ssir_fuzz --seeds 0:100000 --budget-ms 60000
 *   ssir_fuzz --replay fuzz-repros/seed_7/program.s
 *   ssir_fuzz --seeds 0:1 --demo-fault         # guaranteed divergence
 *
 * Exit codes: 0 = no divergences, 1 = divergences found (bundles
 * written), 2 = usage or infrastructure error.
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "assembler/assembler.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/oracle.hh"

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: ssir_fuzz [options]\n"
          "  --seeds A:B     fuzz seeds in [A, B)          "
          "(default 0:100)\n"
          "  --jobs N        worker threads                "
          "(default $SLIPSTREAM_JOBS or cores)\n"
          "  --isolation M   none | fork: sandbox each seed in a "
          "worker process\n"
          "                  (default $SLIPSTREAM_ISOLATION; fork "
          "survives crashing seeds)\n"
          "  --budget-ms N   wall-clock budget; stop starting new "
          "seeds once exceeded\n"
          "  --max-cycles N  per-leg cycle budget          "
          "(default 20000000)\n"
          "  --out DIR       repro bundle directory        "
          "(default fuzz-repros)\n"
          "  --no-bundles    report divergences without writing "
          "bundles\n"
          "  --no-minimize   keep divergent programs unminimized\n"
          "  --demo-fault    arm an undetectable memory-cell fault "
          "in the slipstream leg\n"
          "  --replay FILE   run the oracle on one assembly file, "
          "no generation\n"
          "  --dump DIR      write generated programs for the seed "
          "window as DIR/seed_<N>.s, no oracle\n"
          "  --verbose-logs  keep model warn/inform output\n"
          "  -h, --help\n";
}

bool
parseSeeds(const std::string &s, uint64_t &begin, uint64_t &end)
{
    const size_t colon = s.find(':');
    if (colon == std::string::npos)
        return false;
    return slip::parseUnsigned(s.substr(0, colon), begin) &&
           slip::parseUnsigned(s.substr(colon + 1), end) && begin <= end;
}

int
replay(const std::string &path, const slip::fuzz::OracleOptions &oracle)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "ssir_fuzz: cannot read " << path << "\n";
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    try {
        const slip::Program program = slip::assemble(buf.str());
        const slip::fuzz::OracleVerdict v =
            slip::fuzz::runOracle(program, oracle);
        if (v.diverged) {
            std::cout << "DIVERGED: " << path << "\n"
                      << v.report << "\n";
            return 1;
        }
        std::cout << "clean: " << path << "\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "ssir_fuzz: replay failed: " << e.what() << "\n";
        return 2;
    }
}

int
dumpCorpus(const std::string &dir, const slip::fuzz::FuzzOptions &opt)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        std::cerr << "ssir_fuzz: cannot create " << dir << ": "
                  << ec.message() << "\n";
        return 2;
    }
    for (uint64_t seed = opt.seedBegin; seed < opt.seedEnd; ++seed) {
        const slip::fuzz::GeneratedProgram gp =
            slip::fuzz::generate(seed, opt.gen);
        const fs::path path =
            fs::path(dir) / ("seed_" + std::to_string(seed) + ".s");
        std::ofstream out(path);
        if (!out) {
            std::cerr << "ssir_fuzz: cannot write " << path.string()
                      << "\n";
            return 2;
        }
        out << "# ssir_fuzz generated program, seed " << seed << "\n"
            << "# generator: " << opt.gen.summary() << "\n"
            << "# regenerate: ssir_fuzz --seeds " << seed << ":"
            << seed + 1 << " --dump <dir>\n"
            << gp.render();
    }
    std::cout << "ssir_fuzz: wrote "
              << (opt.seedEnd - opt.seedBegin) << " programs to "
              << dir << "\n";
    return 0;
}

int
run(int argc, char **argv)
{
    slip::fuzz::FuzzOptions opt;
    std::string replayPath;
    std::string dumpDir;
    bool quietLogs = true;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "ssir_fuzz: " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (arg == "--seeds") {
            const std::string v = value("--seeds");
            if (!parseSeeds(v, opt.seedBegin, opt.seedEnd)) {
                std::cerr << "ssir_fuzz: bad --seeds '" << v
                          << "' (want A:B with A <= B)\n";
                return 2;
            }
        } else if (arg == "--jobs") {
            if (!slip::parseUnsigned(value("--jobs"), opt.jobs) || opt.jobs == 0) {
                std::cerr << "ssir_fuzz: bad --jobs\n";
                return 2;
            }
        } else if (arg == "--isolation") {
            const std::string v = value("--isolation");
            if (!slip::parseIsolationMode(v, opt.isolation)) {
                std::cerr << "ssir_fuzz: bad --isolation '" << v
                          << "' (want none|fork)\n";
                return 2;
            }
        } else if (arg == "--budget-ms") {
            if (!slip::parseUnsigned(value("--budget-ms"), opt.budgetMs)) {
                std::cerr << "ssir_fuzz: bad --budget-ms\n";
                return 2;
            }
        } else if (arg == "--max-cycles") {
            if (!slip::parseUnsigned(value("--max-cycles"), opt.oracle.maxCycles) ||
                opt.oracle.maxCycles == 0) {
                std::cerr << "ssir_fuzz: bad --max-cycles\n";
                return 2;
            }
        } else if (arg == "--out") {
            opt.bundleDir = value("--out");
        } else if (arg == "--no-bundles") {
            opt.bundleDir.clear();
        } else if (arg == "--no-minimize") {
            opt.minimizeDivergences = false;
        } else if (arg == "--demo-fault") {
            // A bit flip in the authoritative memory image: invisible
            // to slipstream redundancy (paper leaves main memory to
            // ECC), so the oracle MUST report it — the acceptance
            // check that the whole detection pipeline works.
            slip::FaultPlan plan;
            plan.target = slip::FaultTarget::MemoryCell;
            plan.dynIndex = 40;
            plan.bit = 13;
            opt.oracle.faults.push_back(plan);
        } else if (arg == "--replay") {
            replayPath = value("--replay");
        } else if (arg == "--dump") {
            dumpDir = value("--dump");
        } else if (arg == "--verbose-logs") {
            quietLogs = false;
        } else {
            std::cerr << "ssir_fuzz: unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    // The degraded leg's forced transition warns on every seed;
    // that's campaign noise, not information.
    slip::setLogQuiet(quietLogs);

    if (!dumpDir.empty())
        return dumpCorpus(dumpDir, opt);

    if (!replayPath.empty())
        return replay(replayPath, opt.oracle);

    uint64_t done = 0;
    const uint64_t total = opt.seedEnd - opt.seedBegin;
    opt.onSeed = [&done, total](uint64_t seed, bool diverged) {
        ++done;
        if (diverged)
            std::cout << "seed " << seed << ": DIVERGED\n";
        else if (done % 100 == 0)
            std::cout << "  ..." << done << "/" << total
                      << " seeds clean\n";
    };

    try {
        const slip::fuzz::FuzzSummary summary = runFuzz(opt);
        std::cout << "ssir_fuzz: " << summary.seedsRun << " seeds, "
                  << summary.divergences << " divergences, "
                  << summary.errors << " errors";
        if (summary.workerCrashes)
            std::cout << ", " << summary.workerCrashes
                      << " worker crashes";
        std::cout << (summary.budgetExhausted ? " (budget exhausted)"
                                              : "")
                  << "\n";
        for (const slip::fuzz::FuzzCase &c : summary.findings) {
            std::cout << "---- seed " << c.seed << " ----\n";
            if (!c.report.empty())
                std::cout << c.report << "\n";
            if (!c.error.empty())
                std::cout << "error: " << c.error << "\n";
            if (!c.bundlePath.empty())
                std::cout << "bundle: " << c.bundlePath << "\n";
        }
        if (summary.errors != 0 && summary.divergences == 0)
            return 2;
        return summary.divergences == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "ssir_fuzz: " << e.what() << "\n";
        return 2;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
