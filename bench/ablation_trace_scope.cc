/**
 * Ablation: trace length, IR-detector scope, and trace selection.
 *
 * §2.1.3 discusses how trace-based removal limits effectiveness:
 * confidence is per-trace and back-propagation is confined to one
 * trace, so the trace length and the detector's kill scope shape how
 * much is removable. This sweep also toggles the backward-taken
 * trace-boundary heuristic (which keeps loop traces phase-aligned)
 * and the history-vs-trace-id keying of removal confidence.
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"

namespace
{

int
run(int, char **)
{
    using namespace slip;
    bench::banner("Ablation: trace length / detector scope / keying",
                  "paper: length-32 traces, 8-trace scope (Table 2)");

    const std::vector<unsigned> lengths = {8u, 16u, 32u, 64u};
    const std::vector<unsigned> scopes = {1u, 2u, 4u, 8u, 16u};
    const std::vector<std::string> variantNames = {
        "paper (history-keyed, loop-aligned)",
        "no backward-taken trace ends",
        "confidence keyed by trace id",
    };

    const ProgramCache::Entry &e =
        ProgramCache::global().get("m88ksim", bench::benchSize());

    SimJobRunner runner;
    bench::Timing timing("ablation_trace_scope", runner.jobs());
    runner.add([&e] {
        return runSS(e.program, ss64x4Params(), "SS(64x4)", e.golden);
    });
    for (unsigned len : lengths) {
        runner.add([&e, len] {
            SlipstreamParams params = cmp2x64x4Params();
            params.tracePolicy.maxLen = len;
            return runSlipstream(e.program, params, e.golden);
        });
    }
    for (unsigned scope : scopes) {
        runner.add([&e, scope] {
            SlipstreamParams params = cmp2x64x4Params();
            params.detector.scopeTraces = scope;
            return runSlipstream(e.program, params, e.golden);
        });
    }
    for (int variant = 0; variant < 3; ++variant) {
        runner.add([&e, variant] {
            SlipstreamParams params = cmp2x64x4Params();
            if (variant == 1)
                params.tracePolicy.endAtBackwardTaken = false;
            else if (variant == 2)
                params.irPred.keyByTraceId = true;
            return runSlipstream(e.program, params, e.golden);
        });
    }
    const std::vector<RunMetrics> results = runner.run();
    for (const RunMetrics &m : results)
        timing.addCycles(m.cycles);

    const RunMetrics &base = results[0];
    std::cout << "m88ksim, SS(64x4) IPC " << Table::fixed(base.ipc)
              << "\n\n";
    size_t next = 1;

    {
        Table table({"trace length", "IPC", "vs SS", "removed"});
        for (unsigned len : lengths) {
            const RunMetrics &m = results[next++];
            if (!m.outputCorrect)
                SLIP_FATAL("mismatch at length ", len);
            table.addRow({Table::count(len), Table::fixed(m.ipc),
                          Table::percent(m.ipc / base.ipc - 1.0),
                          Table::percent(m.removedFraction)});
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    {
        Table table({"detector scope", "IPC", "removed", "IR-misp/1k"});
        for (unsigned scope : scopes) {
            const RunMetrics &m = results[next++];
            if (!m.outputCorrect)
                SLIP_FATAL("mismatch at scope ", scope);
            table.addRow({Table::count(scope), Table::fixed(m.ipc),
                          Table::percent(m.removedFraction),
                          Table::fixed(m.irMispPer1000, 3)});
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    {
        Table table({"variant", "IPC", "removed", "IR-misp/1k"});
        for (size_t variant = 0; variant < variantNames.size();
             ++variant) {
            const RunMetrics &m = results[next++];
            if (!m.outputCorrect)
                SLIP_FATAL("mismatch in variant ", variant);
            table.addRow({variantNames[variant], Table::fixed(m.ipc),
                          Table::percent(m.removedFraction),
                          Table::fixed(m.irMispPer1000, 3)});
        }
        table.print(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
