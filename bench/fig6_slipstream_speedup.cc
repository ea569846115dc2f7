/**
 * Reproduces Figure 6 — percent IPC improvement of the CMP(2x64x4)
 * slipstream processor over SS(64x4), per benchmark.
 *
 * Paper's shape: average ~7%; m88ksim ~20%, perl ~16%, li/vortex ~7%,
 * gcc ~4%, compress/go/jpeg ~0%. The shape to check: the highly
 * branch-predictable, ineffectual-write-rich benchmarks win; the
 * data-dependent ones do not.
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"

namespace
{

int
run(int argc, char **argv)
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

    // One SS baseline per workload, then one CMP run per workload,
    // all through one runner so the grid saturates the worker pool.
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
    for (const Workload &w : workloads) {
        const ProgramCache::Entry &e =
            ProgramCache::global().get(w.name, bench::benchSize());
        const std::string name = w.name;
        runner.add([&e, name] {
            obs::TrialTrace scope("fig6_" + name + "_cmp");
            return runSlipstream(e.program, cmp2x64x4Params(), e.golden);
        });
    }
    const std::vector<RunMetrics> results = runner.run();
    for (const RunMetrics &m : results)
        timing.addCycles(m.cycles);

    Table table({"benchmark", "SS(64x4) IPC", "CMP(2x64x4) IPC",
                 "improvement", "removed", "output ok"});
    double sumImprovement = 0.0;
    double sumRemoved = 0.0;
    for (size_t i = 0; i < nWorkloads; ++i) {
        const RunMetrics &ss = results[i];
        const RunMetrics &cmp = results[nWorkloads + i];
        const double improvement = cmp.ipc / ss.ipc - 1.0;
        sumImprovement += improvement;
        sumRemoved += cmp.removedFraction;
        table.addRow({workloads[i].name, Table::fixed(ss.ipc),
                      Table::fixed(cmp.ipc), Table::percent(improvement),
                      Table::percent(cmp.removedFraction),
                      ss.outputCorrect && cmp.outputCorrect ? "yes"
                                                            : "NO"});
    }
    table.addRow({"average", "", "",
                  Table::percent(sumImprovement / nWorkloads),
                  Table::percent(sumRemoved / nWorkloads), ""});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
