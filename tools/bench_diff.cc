/**
 * bench_diff: normalize, compare, and gate benchmark results.
 *
 *   bench_diff --extract <gbench.json> [--perf <bench_perf.json>]
 *              [-o <out.json>]
 *       Normalize a google-benchmark JSON file (plus, optionally, the
 *       wall-clock records bench_timing writes) into the committed
 *       BENCH_slipstream.json schema, deriving dispatch speedup
 *       ratios (threaded/legacy etc.), which are machine-portable and
 *       therefore what CI gates on.
 *
 *   bench_diff <baseline.json> <new.json> [--filter <substr>]
 *       Print baseline vs new with % deltas for every entry present
 *       on both sides.
 *
 *   bench_diff <baseline.json> <new.json> --check --tolerance <pct>
 *              [--filter <substr>]
 *       Exit nonzero if any matched entry regressed by more than
 *       <pct> percent (direction taken from the entry's "better"
 *       field). Entries only on one side are reported, never fatal.
 *
 * Self-contained: the JSON reader (common/json.hh) is header-only, so
 * the tool links nothing beyond the standard library.
 */

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace
{

using slip::Json;
using slip::jsonNumber;
using slip::parseJson;

/** `j` as a double; 0 when absent or not a number. */
double
num(const Json *j)
{
    double v = 0;
    return j && jsonNumber(*j, v) ? v : 0.0;
}

Json
parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "bench_diff: cannot open " << path << "\n";
        std::exit(2);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    return parseJson(buf.str());
}

// ---- normalized schema ----

struct Entry
{
    std::string bench;
    double value = 0;
    std::string unit;
    bool higherIsBetter = true;
};

double
counterOf(const Json &bench, const char *name)
{
    return num(bench.get(name));
}

/** Normalize one google-benchmark output file into entries. */
std::vector<Entry>
extractGbench(const Json &root)
{
    std::vector<Entry> out;
    const Json *benches = root.get("benchmarks");
    if (!benches || benches->kind != Json::Arr) {
        std::cerr << "bench_diff: no 'benchmarks' array in input\n";
        std::exit(2);
    }
    for (const Json &b : benches->arr) {
        const Json *name = b.get("name");
        const Json *rt = b.get("real_time");
        if (!name || !rt)
            continue;
        // With --benchmark_repetitions, keep only the _mean rows
        // (under their base name); without, keep the plain rows.
        std::string n = name->str;
        const Json *runType = b.get("run_type");
        if (runType && runType->str == "aggregate") {
            const std::string suffix = "_mean";
            if (n.size() < suffix.size() ||
                n.compare(n.size() - suffix.size(), suffix.size(),
                          suffix) != 0)
                continue;
            n.resize(n.size() - suffix.size());
        }
        out.push_back({n + ":ns", num(rt), "ns", false});
        // Per-item host cost of the component benches.
        for (const char *perItem :
             {"ns/inst", "ns/trace", "ns/packet", "ns/access"})
            if (const double v = counterOf(b, perItem))
                out.push_back({n + ":" + perItem, v, perItem, false});
        if (const double r = counterOf(b, "insts/s"))
            out.push_back({n + ":insts/s", r, "insts/s", true});
        if (const double r = counterOf(b, "bytes_per_second"))
            out.push_back({n + ":bytes/s", r, "bytes/s", true});
    }

    // Derived dispatch speedups: ratios of same-machine numbers, so
    // they transfer across machines and are what the CI gate checks.
    const auto rateOf = [&](const std::string &bench) -> double {
        for (const Entry &e : out)
            if (e.bench == bench)
                return e.value;
        return 0.0;
    };
    const double legacy =
        rateOf("BM_FunctionalSimDispatch/legacy:insts/s");
    for (const char *variant : {"switch_", "threaded"}) {
        const double v =
            rateOf(std::string("BM_FunctionalSimDispatch/") + variant +
                   ":insts/s");
        if (legacy > 0 && v > 0)
            out.push_back({std::string("speedup/") + variant +
                               "_vs_legacy",
                           v / legacy, "ratio", true});
    }
    return out;
}

/** Fold in the wall-clock records bench_timing writes. */
void
extractPerf(const Json &root, std::vector<Entry> &out)
{
    if (root.kind != Json::Arr)
        return;
    for (const Json &rec : root.arr) {
        const Json *artifact = rec.get("artifact");
        const double rate = num(rec.get("cycles_per_sec"));
        if (artifact && rate > 0)
            out.push_back({"timing/" + artifact->str + ":cycles/s", rate,
                           "cycles/s", true});
    }
}

std::vector<Entry>
loadNormalized(const std::string &path)
{
    const Json root = parseFile(path);
    const Json *schema = root.get("schema");
    if (!schema || schema->str != "slipstream-bench-v1") {
        std::cerr << "bench_diff: " << path
                  << " is not a slipstream-bench-v1 file (run "
                     "--extract first)\n";
        std::exit(2);
    }
    std::vector<Entry> out;
    const Json *entries = root.get("entries");
    if (entries)
        for (const Json &e : entries->arr) {
            const Json *bench = e.get("bench");
            const Json *value = e.get("value");
            const Json *unit = e.get("unit");
            const Json *better = e.get("better");
            if (!bench || !value)
                continue;
            out.push_back({bench->str, num(value),
                           unit ? unit->str : "",
                           !better || better->str == "higher"});
        }
    return out;
}

void
writeNormalized(const std::vector<Entry> &entries, std::ostream &os)
{
    os << "{\n  \"schema\": \"slipstream-bench-v1\",\n  \"entries\": [";
    for (size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        os << (i ? "," : "") << "\n    {\"bench\": \"" << e.bench
           << "\", \"value\": " << std::setprecision(10) << e.value
           << ", \"unit\": \"" << e.unit << "\", \"better\": \""
           << (e.higherIsBetter ? "higher" : "lower") << "\"}";
    }
    os << "\n  ]\n}\n";
}

// ---- diff / check ----

int
diff(const std::vector<Entry> &base, const std::vector<Entry> &next,
     const std::string &filter, bool check, double tolerancePct)
{
    std::map<std::string, Entry> baseBy;
    for (const Entry &e : base)
        baseBy[e.bench] = e;

    std::cout << std::left << std::setw(44) << "benchmark"
              << std::right << std::setw(14) << "baseline"
              << std::setw(14) << "new" << std::setw(10) << "delta"
              << "  verdict\n";

    int regressions = 0;
    for (const Entry &e : next) {
        if (!filter.empty() &&
            e.bench.find(filter) == std::string::npos)
            continue;
        auto it = baseBy.find(e.bench);
        if (it == baseBy.end()) {
            std::cout << std::left << std::setw(44) << e.bench
                      << "  (new entry, no baseline)\n";
            continue;
        }
        const Entry &b = it->second;
        const double deltaPct =
            b.value != 0 ? (e.value - b.value) / b.value * 100.0 : 0.0;
        const double gain =
            b.higherIsBetter ? deltaPct : -deltaPct;
        const bool regressed = gain < -tolerancePct;

        std::ostringstream d;
        d << std::showpos << std::fixed << std::setprecision(1)
          << deltaPct << "%";
        std::cout << std::left << std::setw(44) << e.bench
                  << std::right << std::setw(14)
                  << std::setprecision(6) << b.value << std::setw(14)
                  << e.value << std::setw(10) << d.str() << "  "
                  << (regressed        ? "REGRESSED"
                      : gain > tolerancePct ? "improved"
                                            : "ok")
                  << "\n";
        if (regressed)
            ++regressions;
    }

    if (check && regressions) {
        std::cerr << "bench_diff: " << regressions
                  << " entr" << (regressions == 1 ? "y" : "ies")
                  << " regressed beyond " << tolerancePct << "%\n";
        return 1;
    }
    return 0;
}

void
usage()
{
    std::cerr
        << "usage:\n"
           "  bench_diff --extract <gbench.json> [--perf <perf.json>]"
           " [-o <out.json>]\n"
           "  bench_diff <baseline.json> <new.json> [--check]"
           " [--tolerance <pct>] [--filter <substr>]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> pos;
    std::string extractPath, perfPath, outPath, filter;
    bool check = false;
    double tolerance = 15.0;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--extract")
            extractPath = next();
        else if (a == "--perf")
            perfPath = next();
        else if (a == "-o" || a == "--out")
            outPath = next();
        else if (a == "--filter")
            filter = next();
        else if (a == "--check")
            check = true;
        else if (a == "--tolerance")
            tolerance = std::stod(next());
        else if (a == "--help" || a == "-h")
            usage();
        else
            pos.push_back(a);
    }

    try {
        if (!extractPath.empty()) {
            if (!pos.empty())
                usage();
            std::vector<Entry> entries =
                extractGbench(parseFile(extractPath));
            if (!perfPath.empty())
                extractPerf(parseFile(perfPath), entries);
            if (outPath.empty()) {
                writeNormalized(entries, std::cout);
            } else {
                std::ofstream out(outPath, std::ios::trunc);
                if (!out) {
                    std::cerr << "bench_diff: cannot write "
                              << outPath << "\n";
                    return 2;
                }
                writeNormalized(entries, out);
            }
            return 0;
        }

        if (pos.size() != 2)
            usage();
        return diff(loadNormalized(pos[0]), loadNormalized(pos[1]),
                    filter, check, tolerance);
    } catch (const std::exception &e) {
        std::cerr << "bench_diff: " << e.what() << "\n";
        return 2;
    }
}
