/**
 * Ablation: the IR-predictor's resetting-confidence threshold.
 *
 * The paper fixes 32 and reports <0.05 IR-misp/1000 there (§5). This
 * sweep shows the trade: low thresholds remove more instructions but
 * admit IR-mispredictions (full recoveries); high thresholds are safe
 * but leave removal on the table. Run on the two benchmarks that
 * bracket the suite: m88ksim (most removable) and compress (least).
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"

namespace
{

int
run(int, char **)
{
    using namespace slip;
    bench::banner("Ablation: confidence threshold sweep",
                  "paper fixes 32 (Table 2); trade-off visualization");

    const std::vector<std::string> names = {"m88ksim", "compress"};
    const std::vector<unsigned> thresholds = {1u,  4u,  8u, 16u,
                                              32u, 64u, 128u};

    SimJobRunner runner;
    bench::Timing timing("ablation_confidence", runner.jobs());
    for (const std::string &name : names) {
        const ProgramCache::Entry &e =
            ProgramCache::global().get(name, bench::benchSize());
        runner.add([&e] {
            return runSS(e.program, ss64x4Params(), "SS(64x4)",
                         e.golden);
        });
        for (unsigned threshold : thresholds) {
            runner.add([&e, threshold] {
                SlipstreamParams params = cmp2x64x4Params();
                params.irPred.confidenceThreshold = threshold;
                return runSlipstream(e.program, params, e.golden);
            });
        }
    }
    const std::vector<RunMetrics> results = runner.run();

    const size_t stride = 1 + thresholds.size();
    for (size_t i = 0; i < names.size(); ++i) {
        const RunMetrics &base = results[i * stride];
        timing.addCycles(base.cycles);
        std::cout << "---- " << names[i] << " (SS IPC "
                  << Table::fixed(base.ipc) << ") ----\n";
        Table table({"threshold", "IPC", "vs SS", "removed",
                     "IR-misp/1k", "avg penalty"});
        for (size_t k = 0; k < thresholds.size(); ++k) {
            const RunMetrics &m = results[i * stride + 1 + k];
            timing.addCycles(m.cycles);
            if (!m.outputCorrect)
                SLIP_FATAL(names[i], ": output mismatch at threshold ",
                           thresholds[k]);
            table.addRow({Table::count(thresholds[k]),
                          Table::fixed(m.ipc),
                          Table::percent(m.ipc / base.ipc - 1.0),
                          Table::percent(m.removedFraction),
                          Table::fixed(m.irMispPer1000, 3),
                          m.recoveries ? Table::fixed(m.avgIRPenalty, 1)
                                       : "-"});
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
