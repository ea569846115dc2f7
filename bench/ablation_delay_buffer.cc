/**
 * Ablation: delay buffer sizing.
 *
 * The paper fixes 256 data entries / 128 control pairs (Table 2). The
 * data buffer bounds how far the A-stream runs ahead; too small and
 * the R-stream starves behind A-stream hiccups, too large buys little
 * once it covers the cores' reorder depth.
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"

namespace
{

int
run(int, char **)
{
    using namespace slip;
    bench::banner("Ablation: delay buffer capacity sweep",
                  "paper fixes 256 data entries / 128 control pairs");

    const std::vector<std::string> names = {"m88ksim", "perl"};
    const std::vector<unsigned> sizes = {32u,  64u,  128u,
                                         256u, 512u, 1024u};

    SimJobRunner runner;
    bench::Timing timing("ablation_delay_buffer", runner.jobs());
    for (const std::string &name : names) {
        const ProgramCache::Entry &e =
            ProgramCache::global().get(name, bench::benchSize());
        runner.add([&e] {
            return runSS(e.program, ss64x4Params(), "SS(64x4)",
                         e.golden);
        });
        for (unsigned data : sizes) {
            runner.add([&e, data] {
                SlipstreamParams params = cmp2x64x4Params();
                params.delayBuffer.dataCapacity = data;
                params.delayBuffer.controlCapacity =
                    std::max(8u, data / 2);
                return runSlipstream(e.program, params, e.golden);
            });
        }
    }
    const std::vector<RunMetrics> results = runner.run();

    const size_t stride = 1 + sizes.size();
    for (size_t i = 0; i < names.size(); ++i) {
        const RunMetrics &base = results[i * stride];
        timing.addCycles(base.cycles);
        std::cout << "---- " << names[i] << " (SS IPC "
                  << Table::fixed(base.ipc) << ") ----\n";
        Table table({"data entries", "control", "IPC", "vs SS"});
        for (size_t k = 0; k < sizes.size(); ++k) {
            const RunMetrics &m = results[i * stride + 1 + k];
            timing.addCycles(m.cycles);
            if (!m.outputCorrect)
                SLIP_FATAL(names[i], ": output mismatch at ",
                           sizes[k]);
            table.addRow({Table::count(sizes[k]),
                          Table::count(std::max(8u, sizes[k] / 2)),
                          Table::fixed(m.ipc),
                          Table::percent(m.ipc / base.ipc - 1.0)});
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
