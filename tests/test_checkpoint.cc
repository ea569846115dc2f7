/**
 * A restored run is the cold run (DESIGN.md §4, invariant 8): every
 * test-size workload under both detection backends is captured at
 * cycles spread over its run, among them the fault-window cycle c*, a
 * cycle inside a recovery's penalty, and a cycle with packets in the
 * delay buffer and walked packets waiting to publish, and at cycle 0
 * and odd eighths of the run. Each capture is
 * restored into a freshly built simulation and run out; its results,
 * metrics, journal line and every StatGroup dump must equal the
 * uninterrupted run's.
 *
 * m88ksim and perl never recover fault-free at test size, so every run
 * carries one delay-buffer branch flip at W/2, which the R-stream
 * always catches: each workload recovers, and captures on either side
 * of the flip carry the fault injector's armed and fired states.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "harness/fault_campaign.hh"
#include "harness/wire.hh"

namespace slip
{
namespace
{

/** Everything a run leaves behind that a restore must reproduce. */
struct RunPicture
{
    std::string metrics; // RunMetrics' wire bytes: every field, exactly
    std::string result;  // SlipstreamRunResult's fields
    std::string stats;   // every component's StatGroup dump
    std::string line;    // the trial's journal line
};

std::string
statsDump(SlipstreamProcessor &p)
{
    std::ostringstream os;
    for (OoOCore *core : {&p.aCore(), &p.rCore()}) {
        core->stats().dump(os);
        core->icache().stats().dump(os);
        core->dcache().stats().dump(os);
    }
    p.aSource().stats().dump(os);
    p.rSource().stats().dump(os);
    p.delayBuffer().stats().dump(os);
    p.recoveryController().stats().dump(os);
    p.detector().stats().dump(os);
    p.irPredictor().stats().dump(os);
    p.tracePredictor().stats().dump(os);
    p.recoveryCauseStats().dump(os);
    return os.str();
}

std::string
resultFields(const SlipstreamRunResult &r)
{
    std::ostringstream os;
    os << r.cycles << ' ' << r.rRetired << ' ' << r.aRetired << ' '
       << r.halted << r.hung << r.cancelled << r.degraded << ' '
       << r.watchdogTrips << ' ' << r.removedSlots << ' '
       << r.aBranchMispredicts << ' ' << r.irMispredicts << ' '
       << r.irPenaltyTotal << ' ' << r.output.size() << ':' << r.output;
    for (uint64_t n : r.removedByReasonMask)
        os << ' ' << n;
    return os.str();
}

struct Fixture
{
    FaultCampaignConfig cfg;
    CampaignTrialSpec spec;
    const ProgramCache::Entry *entry = nullptr;
};

Fixture
fixture(const std::string &workload, DetectBackendKind backend)
{
    Fixture f;
    f.cfg.name = "checkpoint_equivalence";
    f.cfg.workloads = {workload};
    f.cfg.params.detect.kind = backend;
    f.entry = &ProgramCache::global().get(workload, WorkloadSize::Test);
    f.spec.entry = f.entry;
    f.spec.workload = workload;
    f.spec.maxCycles = 0;
    f.spec.plans = {{FaultTarget::DelayBufferBranch,
                     faultWindowStart(f.entry->goldenInstCount) / 2, 0}};
    return f;
}

/** Run `sim` out and take its picture. */
RunPicture
finish(const Fixture &f, SlipstreamSim &sim)
{
    RunPicture pic;
    const SlipstreamRunResult r = sim.proc().run();
    // run() on a finished processor reports the same run again;
    // finish() adds the backend's drain and assembles the metrics.
    const RunMetrics m = sim.finish(f.entry->golden, 0, nullptr);
    wire::Encoder enc;
    enc.put(m);
    pic.metrics = enc.bytes();
    pic.result = resultFields(r);
    pic.stats = statsDump(sim.proc());
    JobOutcome o;
    o.metrics = m;
    pic.line = campaignTrialLine(
        f.cfg, 0, recordCampaignTrial(f.cfg, f.spec, 0, o));
    return pic;
}

void
expectSame(const RunPicture &want, const RunPicture &got,
           const std::string &what)
{
    EXPECT_EQ(want.result, got.result) << what;
    EXPECT_EQ(want.metrics, got.metrics) << what;
    EXPECT_EQ(want.stats, got.stats) << what;
    EXPECT_EQ(want.line, got.line) << what;
}

class RestoredRun
    : public ::testing::TestWithParam<
          std::tuple<std::string, DetectBackendKind>>
{};

TEST_P(RestoredRun, EqualsTheUninterruptedRun)
{
    const auto &[workload, backend] = GetParam();
    const Fixture f = fixture(workload, backend);
    const SlipstreamParams params = f.cfg.params;

    SlipstreamSim cold(f.entry->program, params);
    cold.proc().faultInjector().arm(f.spec.plans);
    const RunPicture want = finish(f, cold);
    const Cycle total = cold.proc().now();
    ASSERT_TRUE(cold.proc().rCore().halted()) << workload;

    // Captures at fixed points of the run plus three chosen states,
    // all taken from one run paused at every cycle.
    SlipstreamSim probe(f.entry->program, params);
    const std::optional<Cycle> cStar = probe.proc().runUntilWalked(
        faultWindowStart(f.entry->goldenInstCount));
    ASSERT_TRUE(cStar.has_value());
    std::vector<Cycle> points = {0};
    for (unsigned i = 1; i <= 7; i += 2)
        points.push_back(total * i / 8);
    std::vector<std::pair<Cycle, std::string>> captures;

    SlipstreamSim walker(f.entry->program, params);
    walker.proc().faultInjector().arm(f.spec.plans);
    bool inPenalty = false, busy = false;
    uint64_t recoveries = 0;
    do {
        SlipstreamProcessor &p = walker.proc();
        const Cycle now = p.now();
        const uint64_t r = p.aSource().stats().get("recoveries");
        if (!inPenalty && r > recoveries) {
            // The recovery ran in cycle now-1; its latency is at
            // least the 21-cycle register restore, so both cores are
            // still waiting it out.
            inPenalty = true;
            captures.emplace_back(now, walker.capture());
        }
        recoveries = r;
        if (!busy && now > *cStar && p.delayBuffer().controlEntries() > 0 &&
            p.aSource().pendingData() > 0) {
            busy = true;
            captures.emplace_back(now, walker.capture());
        }
        if (now == *cStar ||
            std::find(points.begin(), points.end(), now) != points.end())
            captures.emplace_back(now, walker.capture());
    } while (walker.proc().runUntil(walker.proc().now() + 1));
    EXPECT_TRUE(busy) << workload << ": no cycle with packets both "
                                     "in the buffer and pending";
    EXPECT_TRUE(inPenalty) << workload << ": no recovery";
    // Pausing at every cycle changes nothing.
    expectSame(want, finish(f, walker), workload + " paused run");
    EXPECT_GE(captures.size(), 8u) << workload;

    for (const auto &[at, bytes] : captures) {
        // The capture carries the armed plan: nothing is re-armed.
        SlipstreamSim warm(f.entry->program, params);
        warm.restore(bytes);
        EXPECT_EQ(warm.proc().now(), at);
        expectSame(want, finish(f, warm),
                   workload + " restored at cycle " + std::to_string(at));
    }
}

INSTANTIATE_TEST_SUITE_P(
    TestSizeWorkloads, RestoredRun,
    ::testing::Combine(::testing::Values("compress", "gcc", "go", "jpeg",
                                         "li", "m88ksim", "perl",
                                         "vortex"),
                       ::testing::Values(DetectBackendKind::Slipstream,
                                         DetectBackendKind::Replay)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               detectBackendName(std::get<1>(info.param));
    });

TEST(Checkpoint, CaptureRefusesADegradedProcessor)
{
    const ProgramCache::Entry &e =
        ProgramCache::global().get("li", WorkloadSize::Test);
    SlipstreamParams params;
    params.degrade.forceAtCycle = 100;
    SlipstreamSim sim(e.program, params);
    ASSERT_TRUE(sim.proc().runUntil(200));
    ASSERT_TRUE(sim.proc().degraded());
    EXPECT_THROW(sim.capture(), FatalError);
}

TEST(Checkpoint, ARunResumedAfterAPauseEndsAsTheColdRun)
{
    const ProgramCache::Entry &e =
        ProgramCache::global().get("compress", WorkloadSize::Test);
    SlipstreamProcessor cold(e.program);
    const SlipstreamRunResult want = cold.run();

    SlipstreamProcessor paused(e.program);
    ASSERT_TRUE(paused.runUntil(want.cycles / 2));
    EXPECT_EQ(paused.now(), want.cycles / 2);
    EXPECT_EQ(resultFields(paused.run()), resultFields(want));
    // A cap the run passes ends it at the cap, resumed or not.
    SlipstreamProcessor capped(e.program);
    EXPECT_FALSE(capped.runUntil(want.cycles, want.cycles / 3));
    EXPECT_EQ(capped.now(), want.cycles / 3);
    EXPECT_TRUE(capped.run(want.cycles / 3).hung);
}

} // namespace
} // namespace slip
