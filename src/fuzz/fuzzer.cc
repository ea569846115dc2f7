#include "fuzz/fuzzer.hh"

#include <algorithm>
#include <chrono>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "fuzz/minimize.hh"
#include "fuzz/repro.hh"
#include "harness/sim_runner.hh"
#include "harness/wire.hh"

namespace slip::fuzz
{

namespace
{

/** Run one seed end to end (executes on a pool worker). */
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
 * A sandboxed worker died on this seed: the crash *is* the finding.
 * The worker cannot write its own bundle (its handler may only
 * write(2) a CrashNote), so the supervisor regenerates the program
 * from the seed — generation is deterministic — and bundles it here.
 */
FuzzCase
crashCase(uint64_t seed, const FuzzOptions &opt,
          const IsolatedOutcome &iso)
{
    FuzzCase c;
    c.seed = seed;
    char scratch[32];
    std::string how;
    if (iso.status == IsolatedOutcome::Status::TimedOut) {
        how = "sandboxed worker exceeded the trial deadline "
              "(SIGKILLed)";
    } else if (iso.signal) {
        how = std::string("sandboxed worker killed by ") +
              crashSignalName(iso.signal, scratch, sizeof(scratch));
    } else {
        how = "sandboxed worker exited with code " +
              std::to_string(iso.exitCode);
    }
    c.error = how + " (phase " + trialPhaseName(iso.phase) + ")";

    if (opt.bundleDir.empty() ||
        iso.status != IsolatedOutcome::Status::Crashed)
        return c;
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
    return c;
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

    FuzzSummary summary;
    uint64_t next = options.seedBegin;
    while (next < options.seedEnd) {
        if (options.budgetMs != 0 && elapsedMs() >= options.budgetMs) {
            summary.budgetExhausted = true;
            break;
        }

        SimJobRunner runner(options.jobs);
        const uint64_t batch =
            std::min<uint64_t>(options.seedEnd - next,
                               std::max(16u, runner.jobs() * 4));
        std::vector<FuzzCase> cases(batch);

        if (options.isolation == IsolationMode::Fork) {
            // Sandboxed: each seed runs in a worker process. The case
            // crosses back serialized (the in-process path's
            // write-into-cases[i] side effect would die with the
            // child); divergence bundles are written by the child
            // (filesystem effects survive fork), crash bundles by the
            // supervisor.
            WorkerPoolOptions po;
            po.workers = runner.jobs();
            po.timeoutMs = runner.supervision().timeoutMs;
            WorkerPool pool(po);
            pool.run(
                batch,
                [&](size_t i, unsigned) {
                    wire::Encoder enc;
                    enc.put(runSeed(next + i, options));
                    return enc.bytes();
                },
                [&](size_t i, const IsolatedOutcome &iso) {
                    if (iso.ok()) {
                        wire::Decoder dec(iso.payload);
                        dec.get(cases[i]);
                        return;
                    }
                    if (iso.status == IsolatedOutcome::Status::Crashed)
                        ++summary.workerCrashes;
                    cases[i] = crashCase(next + i, options, iso);
                });
        } else {
            for (uint64_t i = 0; i < batch; ++i) {
                const uint64_t seed = next + i;
                runner.add([&cases, i, seed, &options] {
                    cases[i] = runSeed(seed, options);
                    RunMetrics m;
                    m.model = "fuzz";
                    m.outputCorrect = !cases[i].diverged;
                    return m;
                });
            }
            const std::vector<JobOutcome> outcomes =
                runner.runSupervised();
            for (uint64_t i = 0; i < batch; ++i) {
                FuzzCase &c = cases[i];
                if (!outcomes[i].ok() && c.error.empty() &&
                    !c.diverged) {
                    // The supervisor reaped the job (deadline) or it
                    // threw outside runSeed's own handling.
                    c.seed = next + i;
                    c.error =
                        outcomes[i].errorMessage.empty()
                            ? std::string("job ") +
                                  jobStatusName(outcomes[i].status)
                            : outcomes[i].errorMessage;
                }
            }
        }

        for (uint64_t i = 0; i < batch; ++i) {
            FuzzCase &c = cases[i];
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
