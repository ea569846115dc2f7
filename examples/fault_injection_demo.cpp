/**
 * Fault-injection demo: walks through the paper's §3 transient-fault
 * scenarios live — inject a single bit flip into either stream and
 * watch the slipstream processor detect it as a "misprediction" and
 * recover the corrupted context, or (scenario #2) watch a fault in a
 * non-redundant region slip through silently.
 */

#include <iostream>

#include "assembler/assembler.hh"
#include "func/func_sim.hh"
#include "slipstream/slipstream_processor.hh"

namespace
{

using namespace slip;

const char *kSource = R"(
.data
arr: .space 2048
.text
main:
    la   a0, arr
    li   s0, 0
fill:
    slli t0, s0, 3
    add  t0, t0, a0
    mul  t1, s0, s0
    sd   t1, 0(t0)
    addi t9, zero, 1     # removable bookkeeping write
    addi s0, s0, 1
    li   t2, 256
    blt  s0, t2, fill
    li   s0, 0
    li   s1, 0
sum:
    slli t0, s0, 3
    add  t0, t0, a0
    ld   t1, 0(t0)
    add  s1, s1, t1
    addi s0, s0, 1
    li   t2, 256
    blt  s0, t2, sum
    putn s1
    halt
)";

/** The first armed fault that found a victim, or nullptr. */
const FaultRecord *
firstVictim(const FaultOutcome &o)
{
    for (const FaultRecord &rec : o.records)
        if (rec.injected)
            return &rec;
    return nullptr;
}

/**
 * Print one scenario's outcome. `silentExpected` marks the scenario
 * whose victim nothing compares (#2): its undetected fault is the
 * expected outcome, not a failed check.
 */
void
report(const char *label, const SlipstreamRunResult &r,
       const std::string &golden, bool silentExpected = false)
{
    const FaultOutcome &fo = r.faultOutcome;
    const FaultRecord *victim = firstVictim(fo);
    std::cout << label << "\n"
              << "  fault injected:   " << (victim ? "yes" : "no")
              << "\n";
    if (victim) {
        std::cout << "  redundant victim: "
                  << (victim->targetWasRedundant ? "yes" : "no")
                  << "\n"
                  << "  detected:         "
                  << (fo.numDetected == fo.numInjected
                          ? "yes (recovered)"
                      : silentExpected
                          ? "not detected, as expected: nothing "
                            "compares a skipped instruction"
                          : "NO (silent)")
                  << "\n";
        for (const FaultRecord &rec : fo.records) {
            if (!rec.detected)
                continue;
            std::cout << "  detect latency:   "
                      << rec.detectionLatency() << " cycles ("
                      << faultTargetName(rec.plan.target) << ")\n";
        }
    }
    std::cout << "  recoveries:       " << r.irMispredicts << "\n";
    if (r.watchdogTrips)
        std::cout << "  watchdog trips:   " << r.watchdogTrips << "\n";
    if (r.degraded)
        std::cout << "  DEGRADED to R-only at cycle "
                  << r.degradedAtCycle << " (" << r.rOnlyRetired
                  << " instructions retired R-only)\n";
    std::cout << "  output correct:   "
              << (r.output == golden ? "yes" : "NO — CORRUPTED")
              << "\n\n";
}

} // namespace

int
main()
{
    setLogQuiet(true);
    const Program program = assemble(kSource);
    FuncSim func(program);
    const std::string golden = func.run().output;
    std::cout << "golden output: " << golden << "\n";

    // Scenario #1a: fault hits the A-stream's copy. The R-stream's
    // redundant computation disagrees -> detected, recovered.
    {
        SlipstreamProcessor proc(program);
        proc.faultInjector().arm({{FaultTarget::AStream, 600, 5}});
        report("A-stream fault on a redundant instruction:",
               proc.run(), golden);
    }

    // Scenario #1b: fault hits the R-stream copy in the pipeline.
    // The comparison against the A-stream value disagrees -> the
    // pipeline squashes and re-executes cleanly.
    {
        SlipstreamProcessor proc(program);
        proc.faultInjector().arm({{FaultTarget::RPipeline, 900, 12}});
        report("R-pipeline fault on a redundant instruction:",
               proc.run(), golden);
    }

    // Scenario #2: fault hits the R-stream copy of an instruction the
    // A-stream *skipped* — there is nothing to compare against, so
    // the corruption can retire silently. Scan for such a victim.
    {
        std::cout << "scanning for a non-redundant victim "
                     "(scenario #2)...\n";
        bool found = false;
        for (uint64_t idx = 300; idx < 3800 && !found; idx += 11) {
            SlipstreamProcessor proc(program);
            proc.faultInjector().arm({{FaultTarget::RPipeline, idx, 0}});
            const SlipstreamRunResult r = proc.run();
            const FaultRecord *victim = firstVictim(r.faultOutcome);
            if (victim && !victim->targetWasRedundant) {
                found = true;
                report("R-pipeline fault on a skipped instruction:", r,
                       golden, /*silentExpected=*/true);
            }
        }
        if (!found)
            std::cout << "  (no skipped-slot victim found at this "
                         "size — removal too sparse)\n\n";
    }

    // Reliable mode (AR-SMT): removal disabled, everything redundant,
    // the same fault class is always detected.
    {
        SlipstreamParams params;
        params.irPred.enabled = false;
        SlipstreamProcessor proc(program, params);
        proc.faultInjector().arm({{FaultTarget::RPipeline, 610, 7}});
        report("reliable (AR-SMT) mode, same fault class:", proc.run(),
               golden);
    }

    // A value corrupted *in transit* between the cores (delay-buffer
    // payload): always compared, so always detected.
    {
        SlipstreamProcessor proc(program);
        proc.faultInjector().arm(
            {{FaultTarget::DelayBufferValue, 700, 9}});
        report("delay-buffer payload corrupted in transit:",
               proc.run(), golden);
    }

    // The A-stream front end wedges (a control-flow derailing fault):
    // only the forward-progress watchdog can expose it. The forced
    // recovery resynchronizes the A-stream and the run completes.
    {
        SlipstreamParams params;
        params.watchdog.stallCycles = 2000;
        SlipstreamProcessor proc(program, params);
        proc.faultInjector().arm({{FaultTarget::AStreamStall, 900, 0}});
        report("A-stream wedged; watchdog forces the recovery:",
               proc.run(), golden);
    }

    // Graceful degradation: a dense burst of A-side faults trips the
    // recovery-storm detector; the processor sheds the A-stream and
    // finishes the program R-only — output still intact.
    {
        SlipstreamParams params;
        params.irPred.enabled = false;
        params.degrade.windowCycles = 50'000;
        params.degrade.recoveryThreshold = 3;
        SlipstreamProcessor proc(program, params);
        std::vector<FaultPlan> burst;
        for (uint64_t i = 0; i < 6; ++i)
            burst.push_back({FaultTarget::AStream, 400 + 120 * i, 4});
        proc.faultInjector().arm(burst);
        report("recovery storm; graceful degradation to R-only:",
               proc.run(), golden);
    }

    return 0;
}
