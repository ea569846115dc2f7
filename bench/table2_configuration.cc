/**
 * Reproduces Table 2 — the microarchitecture configuration. Prints
 * every parameter of the single-processor cores and the slipstream
 * components, as instantiated by the experiment harness, so the
 * configuration used by every other bench is externally auditable.
 */

#include "bench/bench_timing.hh"
#include "bench_common.hh"

namespace
{

int
run(int, char **)
{
    using namespace slip;
    bench::banner("Table 2: Microarchitecture configuration",
                  "single processor + slipstream components");
    bench::Timing timing("table2", 1);

    const CoreParams ss = ss64x4Params();
    const CoreParams wide = ss128x8Params();
    const SlipstreamParams slip = cmp2x64x4Params();

    Table core({"parameter", "SS(64x4)", "SS(128x8)"});
    const auto row = [&](const std::string &name, auto a, auto b) {
        core.addRow({name, std::to_string(a), std::to_string(b)});
    };
    row("fetch width (insts/cycle)", ss.fetchWidth, wide.fetchWidth);
    row("dispatch width", ss.dispatchWidth, wide.dispatchWidth);
    row("issue width", ss.issueWidth, wide.issueWidth);
    row("retire width", ss.retireWidth, wide.retireWidth);
    row("reorder buffer entries", ss.robSize, wide.robSize);
    row("front-end depth (cycles)", ss.fetchToDispatch,
        wide.fetchToDispatch);
    row("redirect penalty (cycles)", ss.redirectPenalty,
        wide.redirectPenalty);
    row("int multiply latency", ss.intMultLat, wide.intMultLat);
    row("int divide latency", ss.intDivLat, wide.intDivLat);
    row("icache size (bytes)", ss.icache.sizeBytes,
        wide.icache.sizeBytes);
    row("icache assoc", ss.icache.assoc, wide.icache.assoc);
    row("icache line (bytes)", ss.icache.lineBytes,
        wide.icache.lineBytes);
    row("icache miss penalty", ss.icache.missPenalty,
        wide.icache.missPenalty);
    row("dcache size (bytes)", ss.dcache.sizeBytes,
        wide.dcache.sizeBytes);
    row("dcache assoc", ss.dcache.assoc, wide.dcache.assoc);
    row("dcache hit latency", ss.dcache.hitLatency,
        wide.dcache.hitLatency);
    row("dcache miss penalty", ss.dcache.missPenalty,
        wide.dcache.missPenalty);
    core.print(std::cout);

    std::cout << "\n";
    Table comp({"slipstream component", "value"});
    comp.addRow({"trace predictor: correlated entries",
                 std::to_string(1u << slip.tracePred.correlatedBits)});
    comp.addRow({"trace predictor: simple entries",
                 std::to_string(1u << slip.tracePred.simpleBits)});
    comp.addRow({"trace predictor: path depth",
                 std::to_string(PathHistory::kDepth)});
    comp.addRow({"trace length (max)",
                 std::to_string(slip.tracePolicy.maxLen)});
    comp.addRow({"trace ends at backward-taken",
                 slip.tracePolicy.endAtBackwardTaken ? "yes" : "no"});
    comp.addRow({"IR-predictor entries",
                 std::to_string(1u << slip.irPred.tableBits)});
    comp.addRow({"IR confidence threshold (resetting)",
                 std::to_string(slip.irPred.confidenceThreshold)});
    comp.addRow({"IR fetch-skip run length",
                 std::to_string(slip.irPred.skipRunLength)});
    comp.addRow({"IR-detector scope (traces)",
                 std::to_string(slip.detector.scopeTraces)});
    comp.addRow({"delay buffer: control entries",
                 std::to_string(slip.delayBuffer.controlCapacity)});
    comp.addRow({"delay buffer: data entries",
                 std::to_string(slip.delayBuffer.dataCapacity)});
    comp.addRow({"recovery startup (cycles)",
                 std::to_string(slip.recovery.startupCycles)});
    comp.addRow({"register restores per cycle",
                 std::to_string(slip.recovery.regRestoresPerCycle)});
    comp.addRow({"memory restores per cycle",
                 std::to_string(slip.recovery.memRestoresPerCycle)});
    comp.addRow({"minimum recovery latency", "21 cycles (5 + 64/4)"});
    comp.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return slip::runMain(argc, argv, run);
}
