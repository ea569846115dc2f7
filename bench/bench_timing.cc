#include "bench/bench_timing.hh"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/atomic_write.hh"
#include "common/json.hh"

namespace slip::bench
{

namespace
{

std::string
perfJsonPath()
{
    if (const char *env = std::getenv("SLIPSTREAM_PERF_JSON"))
        return env;
    return "results/bench_perf.json";
}

/**
 * The records already in the array at `path`, each as its own text
 * and followed by ",\n". A file that does not parse is named in a
 * warning and its records are dropped.
 */
std::string
priorRecordLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return "";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::string lines;
    try {
        const Json root = parseJson(text);
        if (root.kind != Json::Arr)
            throw JsonError("not a JSON array");
        for (const Json &rec : root.arr)
            lines += "  " + text.substr(rec.begin, rec.end - rec.begin) +
                     ",\n";
    } catch (const JsonError &e) {
        // Logs may be muted by now; this must reach the operator.
        std::cerr << "warn: " << path << " does not parse (" << e.what()
                  << "); its records are dropped\n";
        return "";
    }
    return lines;
}

} // namespace

Timing::Timing(std::string artifact, unsigned jobs)
    : artifact_(std::move(artifact)), jobs_(jobs),
      start_(std::chrono::steady_clock::now())
{
}

double
Timing::elapsedSeconds() const
{
    const auto dt = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(dt).count();
}

Timing::~Timing()
{
    try {
        const double seconds = elapsedSeconds();
        const double rate =
            seconds > 0.0 ? double(cycles_) / seconds : 0.0;

        std::ostringstream rec;
        rec << "{\"artifact\": \"" << artifact_ << "\""
            << ", \"jobs\": " << jobs_
            << ", \"seconds\": " << seconds
            << ", \"simulated_cycles\": " << cycles_
            << ", \"cycles_per_sec\": " << rate << "}";

        const std::string path = perfJsonPath();
        if (!writeFileAtomically(path,
                                 "[\n" + priorRecordLines(path) + "  " +
                                     rec.str() + "\n]\n",
                                 "bench timing records"))
            return;

        std::cout << "\n[" << artifact_ << "] " << seconds
                  << " s wall, " << jobs_ << " job(s), " << cycles_
                  << " simulated cycles -> " << path << "\n";
    } catch (...) {
        // Timing must never take down a bench run.
    }
}

} // namespace slip::bench
