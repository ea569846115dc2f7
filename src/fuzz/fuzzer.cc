#include "fuzz/fuzzer.hh"

#include <algorithm>
#include <chrono>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "fuzz/minimize.hh"
#include "fuzz/repro.hh"
#include "harness/sim_runner.hh"

namespace slip::fuzz
{

namespace
{

/** Run one seed end to end (a SimJobRunner job). */
FuzzCase
runSeed(uint64_t seed, const FuzzOptions &opt)
{
    FuzzCase c;
    c.seed = seed;
    GeneratedProgram gp;
    std::string source;
    try {
        gp = generate(seed, opt.gen);
        source = gp.render();
        const Program program = assemble(source);
        const OracleVerdict v = runOracle(program, opt.oracle);
        if (!v.diverged)
            return c;
        c.diverged = true;
        c.report = v.report;
    } catch (const std::exception &e) {
        c.error = e.what();
        return c;
    }

    // Divergence: minimize greedily, then bundle. Failures past this
    // point must not lose the finding, so they degrade the bundle
    // rather than abort the case.
    std::string minimized = source;
    MinimizeResult mr;
    if (opt.minimizeDivergences) {
        mr = minimize(
            gp,
            [&opt](const std::string &candidate) {
                try {
                    return runOracle(assemble(candidate), opt.oracle)
                        .diverged;
                } catch (const std::exception &) {
                    // A candidate that breaks assembly (or the
                    // harness) is not a reproducer.
                    return false;
                }
            },
            opt.minimizeAttempts);
        minimized = mr.source;
        try {
            // Re-derive the report from the minimized program so the
            // bundle's report matches the bundle's program.s.
            const OracleVerdict v =
                runOracle(assemble(minimized), opt.oracle);
            if (v.diverged)
                c.report = v.report;
        } catch (const std::exception &) {
        }
    }

    if (!opt.bundleDir.empty()) {
        try {
            ReproSpec spec;
            spec.seed = seed;
            spec.configSummary = opt.gen.summary();
            spec.report = c.report;
            spec.originalSource = source;
            spec.minimizedSource = minimized;
            spec.faults = opt.oracle.faults;
            spec.unitsRemoved = mr.unitsRemoved;
            spec.minimizeAttempts = mr.attempts;
            c.bundlePath = writeReproBundle(opt.bundleDir, spec);
        } catch (const std::exception &e) {
            c.error = std::string("bundle write failed: ") + e.what();
        }
    }
    return c;
}

/**
 * The runner's word on a seed whose job did not return normally: it
 * threw past runSeed's own handling, hit the deadline, or (fork
 * isolation) its worker died. A worker's death *is* the finding. The
 * worker cannot write its own bundle (its handler may only write(2) a
 * CrashNote), so the supervisor regenerates the program from the
 * seed — generation is deterministic — and bundles it here.
 */
void
noteFailure(Outcome<FuzzCase> &o, uint64_t seed, const FuzzOptions &opt)
{
    FuzzCase &c = o.record;
    c.seed = seed;
    if (c.diverged || !c.error.empty())
        return; // the partial record already says what went wrong
    c.error = o.errorMessage.empty()
                  ? std::string("job ") + jobStatusName(o.status)
                  : o.errorMessage;

    if (opt.bundleDir.empty() || o.status != JobEnd::Status::Crashed)
        return;
    try {
        ReproSpec spec;
        spec.seed = seed;
        spec.title = "SSIR fuzz worker crash";
        spec.configSummary = opt.gen.summary();
        spec.report = c.error;
        spec.originalSource = generate(seed, opt.gen).render();
        spec.minimizedSource = spec.originalSource;
        spec.faults = opt.oracle.faults;
        c.bundlePath = writeReproBundle(opt.bundleDir, spec);
    } catch (const std::exception &e) {
        SLIP_WARN("failed to bundle crashed fuzz seed ", seed, ": ",
                  e.what());
    }
}

} // namespace

FuzzSummary
runFuzz(const FuzzOptions &options)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    const auto elapsedMs = [&start] {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - start)
                .count());
    };

    // Each seed runs once, in this process or (fork isolation) in a
    // worker process; divergence bundles are written by the job, crash
    // bundles by noteFailure().
    SimJobRunner<FuzzCase> runner(options.jobs);
    runner.setIsolation(options.isolation);
    const uint64_t batchCap = std::max(16u, runner.jobs() * 4);

    FuzzSummary summary;
    uint64_t next = options.seedBegin;
    while (next < options.seedEnd) {
        if (options.budgetMs != 0 && elapsedMs() >= options.budgetMs) {
            summary.budgetExhausted = true;
            break;
        }

        const uint64_t batch =
            std::min<uint64_t>(options.seedEnd - next, batchCap);
        for (uint64_t i = 0; i < batch; ++i)
            runner.add([seed = next + i, &options] {
                return runSeed(seed, options);
            });
        std::vector<Outcome<FuzzCase>> outcomes = runner.runSupervised();
        for (uint64_t i = 0; i < batch; ++i) {
            Outcome<FuzzCase> &o = outcomes[i];
            if (o.status == JobEnd::Status::Crashed)
                ++summary.workerCrashes;
            if (!o.ok())
                noteFailure(o, next + i, options);
            FuzzCase &c = o.record;
            ++summary.seedsRun;
            const bool diverged = c.diverged;
            if (c.diverged)
                ++summary.divergences;
            if (!c.error.empty())
                ++summary.errors;
            if (c.diverged || !c.error.empty())
                summary.findings.push_back(std::move(c));
            if (options.onSeed)
                options.onSeed(next + i, diverged);
        }
        next += batch;
    }
    return summary;
}

} // namespace slip::fuzz
