/**
 * Reproduces Figure 8 — the breakdown of A-stream-removed instructions
 * by source: BR (branches), WW (unreferenced writes), SV (same-value
 * writes), and P:{...} (instructions removed by back-propagation,
 * inheriting their consumers' categories).
 *
 * Upper table: all removal triggers enabled (paper: BR 33%, SV 30%,
 * P:BR 27% of removed instructions on average; m88ksim removes nearly
 * half its stream). Lower table: only branches as candidates
 * (paper's counterintuitive result: removal *increases* for most
 * benchmarks because unrelated writes no longer dilute confidence).
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"

namespace
{

using namespace slip;

void
printBreakdown(const std::vector<Workload> &workloads,
               const std::vector<RunMetrics> &results,
               const char *title)
{
    std::cout << "---- " << title << " ----\n";
    Table table({"benchmark", "removed", "BR", "WW", "SV", "P:*",
                 "other"});
    for (size_t i = 0; i < workloads.size(); ++i) {
        const RunMetrics &m = results[i];
        if (!m.outputCorrect)
            SLIP_FATAL(workloads[i].name,
                       ": slipstream output mismatch");

        uint64_t br = 0, ww = 0, sv = 0, prop = 0, other = 0;
        uint64_t total = 0;
        for (const auto &[name, count] : m.removedByReason) {
            total += count;
            if (name.rfind("P:", 0) == 0)
                prop += count;
            else if (name == "BR")
                br += count;
            else if (name == "WW" || name == "WW,BR")
                ww += count;
            else if (name.rfind("SV", 0) == 0)
                sv += count;
            else
                other += count;
        }
        const auto frac = [&](uint64_t n) {
            return total ? Table::percent(double(n) / total) : "-";
        };
        table.addRow({workloads[i].name,
                      Table::percent(m.removedFraction), frac(br),
                      frac(ww), frac(sv), frac(prop), frac(other)});
    }
    table.print(std::cout);
    std::cout << "\n";
}

int
run(int, char **)
{
    using namespace slip;
    bench::banner("Figure 8: breakdown of removed A-stream instructions",
                  "removal fraction and source categories");

    const std::vector<Workload> workloads =
        allWorkloads(bench::benchSize());

    // Both removal modes in one grid, so the worker pool stays
    // saturated.
    SimJobRunner runner;
    bench::Timing timing("fig8", runner.jobs());
    for (bool removeWrites : {true, false}) {
        for (const Workload &w : workloads) {
            const ProgramCache::Entry &e =
                ProgramCache::global().get(w.name, bench::benchSize());
            runner.add([&e, removeWrites] {
                SlipstreamParams params = cmp2x64x4Params();
                params.detector.removeWrites = removeWrites;
                return runSlipstream(e.program, params, e.golden);
            });
        }
    }
    const std::vector<RunMetrics> results = runner.run();
    for (const RunMetrics &m : results)
        timing.addCycles(m.cycles);

    const size_t n = workloads.size();
    printBreakdown(workloads,
                   {results.begin(), results.begin() + n},
                   "branches and ineffectual writes removed");
    printBreakdown(workloads,
                   {results.begin() + n, results.begin() + 2 * n},
                   "only branches removed (lower graph)");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
