/**
 * Reproduces Figure 7 — percent IPC improvement of SS(128x8) (double
 * the window and issue width) over SS(64x4).
 *
 * Paper's shape: average ~28%, substantially larger than the
 * slipstream gain but at the cost of a much bigger core; the paper
 * argues a slipstream CMP of two small cores reaches about a quarter
 * of this with potentially better cycle time.
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"

namespace
{

int
run(int, char **)
{
    using namespace slip;
    bench::banner("Figure 7: SS(128x8) over SS(64x4)",
                  "% IPC improvement from doubling window+width; "
                  "paper avg ~28%");

    const std::vector<Workload> workloads =
        allWorkloads(bench::benchSize());

    SimJobRunner runner;
    bench::Timing timing("fig7", runner.jobs());
    for (const Workload &w : workloads) {
        const ProgramCache::Entry &e =
            ProgramCache::global().get(w.name, bench::benchSize());
        runner.add([&e] {
            return runSS(e.program, ss64x4Params(), "SS(64x4)",
                         e.golden);
        });
        runner.add([&e] {
            return runSS(e.program, ss128x8Params(), "SS(128x8)",
                         e.golden);
        });
    }
    const std::vector<RunMetrics> results = runner.run();

    Table table({"benchmark", "SS(64x4) IPC", "SS(128x8) IPC",
                 "improvement", "output ok"});
    double sum = 0.0;
    unsigned count = 0;
    for (size_t i = 0; i < workloads.size(); ++i) {
        const RunMetrics &narrow = results[2 * i];
        const RunMetrics &wide = results[2 * i + 1];
        timing.addCycles(narrow.cycles + wide.cycles);
        const double improvement = wide.ipc / narrow.ipc - 1.0;
        sum += improvement;
        ++count;
        table.addRow({workloads[i].name, Table::fixed(narrow.ipc),
                      Table::fixed(wide.ipc),
                      Table::percent(improvement),
                      narrow.outputCorrect && wide.outputCorrect
                          ? "yes"
                          : "NO"});
    }
    table.addRow({"average", "", "", Table::percent(sum / count), ""});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
