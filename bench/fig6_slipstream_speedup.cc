/**
 * Reproduces Figure 6 — percent IPC improvement of the CMP(2x64x4)
 * slipstream processor over SS(64x4), per benchmark — and extends it
 * into an A-stream policy sweep: the same grid is run once per
 * shortening policy (ir | reliability), with a per-policy summary
 * table at the end.
 *
 * Paper's shape (the `ir` rows): average ~7%; m88ksim ~20%, perl ~16%,
 * li/vortex ~7%, gcc ~4%, compress/go/jpeg ~0%. The shape to check:
 * the highly branch-predictable, ineffectual-write-rich benchmarks
 * win; the data-dependent ones do not. The reliability policy strips
 * every forwarded value, so its "removed" column reads 100%: every
 * R-retired slot lacked an A-stream value, not a fetch saving.
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace slip;
    for (int i = 1; i < argc; ++i) {
        if (!bench::applyTraceArg(argv[i])) {
            std::cerr << "usage: " << argv[0]
                      << " [--trace[=categories]]\n";
            return 2;
        }
    }
    bench::banner("Figure 6: slipstream speedup over SS(64x4)",
                  "% IPC improvement of CMP(2x64x4); paper avg ~7%");

    const std::vector<Workload> workloads =
        allWorkloads(bench::benchSize());
    const size_t nWorkloads = workloads.size();

    // One SS baseline per workload, then one CMP grid per policy.
    // Every job goes through the same runner so the sweep saturates
    // the worker pool instead of running policy-by-policy.
    SimJobRunner runner;
    bench::Timing timing("fig6", runner.jobs());
    for (const Workload &w : workloads) {
        const ProgramCache::Entry &e =
            ProgramCache::global().get(w.name, bench::benchSize());
        const std::string name = w.name;
        runner.add([&e, name] {
            obs::TrialTrace scope("fig6_" + name + "_ss");
            return runSS(e.program, ss64x4Params(), "SS(64x4)",
                         e.golden);
        });
    }
    for (size_t p = 0; p < kNumAStreamPolicies; ++p) {
        const AStreamPolicyKind kind = AStreamPolicyKind(p);
        for (const Workload &w : workloads) {
            const ProgramCache::Entry &e =
                ProgramCache::global().get(w.name, bench::benchSize());
            const std::string name = w.name;
            runner.add([&e, name, kind] {
                obs::TrialTrace scope("fig6_" + name + "_" +
                                      aStreamPolicyName(kind));
                SlipstreamParams params = cmp2x64x4Params();
                params.aPolicy.kind = kind;
                return runSlipstream(e.program, params, e.golden);
            });
        }
    }
    const std::vector<RunMetrics> results = runner.run();
    for (const RunMetrics &m : results)
        timing.addCycles(m.cycles);

    double avgImprovement[kNumAStreamPolicies] = {};
    double avgRemoved[kNumAStreamPolicies] = {};
    bool anyWrong[kNumAStreamPolicies] = {};

    for (size_t p = 0; p < kNumAStreamPolicies; ++p) {
        const AStreamPolicyKind kind = AStreamPolicyKind(p);
        std::cout << "---- policy: " << aStreamPolicyName(kind)
                  << " ----\n";
        Table table({"benchmark", "SS(64x4) IPC", "CMP(2x64x4) IPC",
                     "improvement", "removed", "output ok"});
        double sum = 0.0;
        for (size_t i = 0; i < nWorkloads; ++i) {
            const RunMetrics &ss = results[i];
            const RunMetrics &cmp =
                results[nWorkloads * (p + 1) + i];
            const double improvement = cmp.ipc / ss.ipc - 1.0;
            sum += improvement;
            avgRemoved[p] += cmp.removedFraction;
            anyWrong[p] |= !ss.outputCorrect || !cmp.outputCorrect;
            table.addRow({workloads[i].name, Table::fixed(ss.ipc),
                          Table::fixed(cmp.ipc),
                          Table::percent(improvement),
                          Table::percent(cmp.removedFraction),
                          ss.outputCorrect && cmp.outputCorrect
                              ? "yes"
                              : "NO"});
        }
        avgImprovement[p] = sum / nWorkloads;
        avgRemoved[p] /= nWorkloads;
        table.addRow({"average", "", "",
                      Table::percent(avgImprovement[p]),
                      Table::percent(avgRemoved[p]), ""});
        table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "---- policy summary (average over "
              << nWorkloads << " workloads) ----\n";
    Table summary(
        {"policy", "avg improvement", "avg removed", "output ok"});
    for (size_t p = 0; p < kNumAStreamPolicies; ++p) {
        summary.addRow({aStreamPolicyName(AStreamPolicyKind(p)),
                        Table::percent(avgImprovement[p]),
                        Table::percent(avgRemoved[p]),
                        anyWrong[p] ? "NO" : "yes"});
    }
    summary.print(std::cout);
    return 0;
}
