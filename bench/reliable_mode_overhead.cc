/**
 * Operating-mode comparison (paper §1 and §7: the same CMP can run in
 * throughput mode, single-program slipstream mode, or a fully reliable
 * AR-SMT-style mode).
 *
 * Measures, per benchmark:
 *   - SS(64x4): one program, one core — the no-redundancy baseline;
 *   - reliable CMP (removal disabled): full dual-execution fault
 *     coverage; the delay buffer still feeds the R-stream perfect
 *     predictions, so the overhead vs the baseline quantifies
 *     AR-SMT's "time redundancy at low performance cost";
 *   - slipstream CMP: partial redundancy traded for speed.
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"

namespace
{

int
run(int, char **)
{
    using namespace slip;
    bench::banner("Operating modes: reliability vs performance",
                  "SS baseline vs reliable (AR-SMT) vs slipstream");

    const std::vector<Workload> workloads =
        allWorkloads(bench::benchSize());

    SimJobRunner runner;
    bench::Timing timing("reliable_mode_overhead", runner.jobs());
    for (const Workload &w : workloads) {
        const ProgramCache::Entry &e =
            ProgramCache::global().get(w.name, bench::benchSize());
        runner.add([&e] {
            return runSS(e.program, ss64x4Params(), "SS(64x4)",
                         e.golden);
        });
        runner.add([&e] {
            SlipstreamParams params = cmp2x64x4Params();
            params.irPred.enabled = false;
            return runSlipstream(e.program, params, e.golden);
        });
        runner.add([&e] {
            return runSlipstream(e.program, cmp2x64x4Params(),
                                 e.golden);
        });
    }
    const std::vector<RunMetrics> results = runner.run();

    Table table({"benchmark", "SS IPC", "reliable IPC", "vs SS",
                 "slipstream IPC", "vs SS", "coverage"});
    for (size_t i = 0; i < workloads.size(); ++i) {
        const RunMetrics &ss = results[3 * i];
        const RunMetrics &rel = results[3 * i + 1];
        const RunMetrics &slip = results[3 * i + 2];
        timing.addCycles(ss.cycles + rel.cycles + slip.cycles);

        if (!ss.outputCorrect || !rel.outputCorrect ||
            !slip.outputCorrect) {
            SLIP_FATAL(workloads[i].name, ": output mismatch");
        }

        table.addRow(
            {workloads[i].name, Table::fixed(ss.ipc),
             Table::fixed(rel.ipc),
             Table::percent(rel.ipc / ss.ipc - 1.0),
             Table::fixed(slip.ipc),
             Table::percent(slip.ipc / ss.ipc - 1.0),
             Table::percent(1.0 - slip.removedFraction) + " redundant"});
    }
    table.print(std::cout);
    std::cout << "\nreliable mode executes every instruction twice "
                 "(full scenario-#1 fault coverage);\nslipstream mode "
                 "trades the removed fraction of that redundancy for "
                 "speed.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
