/**
 * Reproduces Table 3 — misprediction measurements:
 *   - SS(64x4) IPC (the baseline the paper's figures normalize to)
 *   - branch mispredictions per 1000 instructions, SS vs slipstream
 *     (the slipstream predictor trains with update latency, so rates
 *     shift slightly)
 *   - IR-mispredictions per 1000 instructions (paper: < 0.05 at the
 *     confidence threshold of 32)
 *   - average IR-misprediction penalty (paper: 22-26 cycles, close
 *     to the 21-cycle minimum).
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"

namespace
{

int
run(int, char **)
{
    using namespace slip;
    bench::banner("Table 3: misprediction measurements",
                  "branch misp/1000, IR-misp/1000, IR penalty");

    const std::vector<Workload> workloads =
        allWorkloads(bench::benchSize());

    SimJobRunner runner;
    bench::Timing timing("table3", runner.jobs());
    for (const Workload &w : workloads) {
        const ProgramCache::Entry &e =
            ProgramCache::global().get(w.name, bench::benchSize());
        runner.add([&e] {
            return runSS(e.program, ss64x4Params(), "SS(64x4)",
                         e.golden);
        });
        runner.add([&e] {
            return runSlipstream(e.program, cmp2x64x4Params(),
                                 e.golden);
        });
    }
    const std::vector<RunMetrics> results = runner.run();

    Table table({"benchmark", "SS IPC", "SS misp/1k", "CMP misp/1k",
                 "IR-misp/1k", "avg IR penalty"});
    for (size_t i = 0; i < workloads.size(); ++i) {
        const RunMetrics &ss = results[2 * i];
        const RunMetrics &cmp = results[2 * i + 1];
        timing.addCycles(ss.cycles + cmp.cycles);
        if (!ss.outputCorrect || !cmp.outputCorrect)
            SLIP_FATAL(workloads[i].name, ": output mismatch");
        table.addRow({workloads[i].name, Table::fixed(ss.ipc),
                      Table::fixed(ss.branchMispPer1000, 1),
                      Table::fixed(cmp.branchMispPer1000, 1),
                      Table::fixed(cmp.irMispPer1000, 3),
                      cmp.recoveries
                          ? Table::fixed(cmp.avgIRPenalty, 1)
                          : "-"});
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
