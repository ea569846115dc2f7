/**
 * Reproduces Table 1 — the benchmark suite and dynamic instruction
 * counts. Our counts are smaller than SPEC95's (hundreds of millions)
 * by design: the substitutes are scaled to run the whole evaluation in
 * minutes while exercising the same code paths.
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"

namespace
{

int
run(int, char **)
{
    using namespace slip;
    bench::banner("Table 1: Benchmarks",
                  "SPEC95 integer suite, instruction counts "
                  "(substituted workloads; see DESIGN.md)");

    const std::vector<Workload> workloads =
        allWorkloads(bench::benchSize());

    // Each job populates one ProgramCache entry (assembly + golden
    // functional run) so the workloads assemble and execute in
    // parallel; the counts are read off the shared entries.
    SimJobRunner runner;
    bench::Timing timing("table1", runner.jobs());
    for (const Workload &w : workloads) {
        const std::string name = w.name;
        runner.add([name] {
            const ProgramCache::Entry &e =
                ProgramCache::global().get(name, bench::benchSize());
            RunMetrics m;
            m.retired = e.goldenInstCount;
            m.outputBytes = e.golden.size();
            return m;
        });
    }
    const std::vector<RunMetrics> results = runner.run();

    Table table({"benchmark", "substitutes for", "instr. count",
                 "output bytes"});
    for (size_t i = 0; i < workloads.size(); ++i) {
        table.addRow({workloads[i].name, workloads[i].substitutes,
                      Table::count(results[i].retired),
                      Table::count(results[i].outputBytes)});
    }
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
