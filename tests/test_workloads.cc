#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "assembler/assembler.hh"
#include "func/func_sim.hh"
#include "harness/experiment.hh"
#include "workloads/workloads.hh"

namespace slip
{
namespace
{

class WorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTest, AssemblesAndHalts)
{
    const Workload w = getWorkload(GetParam(), WorkloadSize::Test);
    const Program p = assemble(w.source);
    FuncSim sim(p);
    const FuncRunResult r = sim.run(20'000'000);
    EXPECT_TRUE(r.halted) << w.name;
    EXPECT_FALSE(r.output.empty()) << w.name;
    // Test size stays small enough for unit testing.
    EXPECT_LT(r.instCount, 1'000'000u) << w.name;
    EXPECT_GT(r.instCount, 10'000u) << w.name;
}

TEST_P(WorkloadTest, SSModelMatchesFunctional)
{
    const Workload w = getWorkload(GetParam(), WorkloadSize::Test);
    const Program p = assemble(w.source);
    const std::string want = goldenOutput(p);
    const RunMetrics m = runSS(p, ss64x4Params(), "SS(64x4)", want);
    EXPECT_TRUE(m.outputCorrect) << w.name;
    EXPECT_GT(m.ipc, 0.2) << w.name;
    EXPECT_LE(m.ipc, 4.0) << w.name;
}

TEST_P(WorkloadTest, SlipstreamMatchesFunctional)
{
    const Workload w = getWorkload(GetParam(), WorkloadSize::Test);
    const Program p = assemble(w.source);
    const std::string want = goldenOutput(p);
    const RunMetrics m =
        runSlipstream(p, cmp2x64x4Params(), want);
    EXPECT_TRUE(m.outputCorrect) << w.name;
}

// Assemble helper that keeps programs alive for the FuncSim refs.
const Program &
assembleCache(const std::string &src)
{
    static std::vector<std::unique_ptr<Program>> cache;
    cache.push_back(std::make_unique<Program>(assemble(src)));
    return *cache.back();
}

TEST_P(WorkloadTest, SizesScaleDynamicCount)
{
    const Workload test = getWorkload(GetParam(), WorkloadSize::Test);
    const Workload small = getWorkload(GetParam(), WorkloadSize::Small);
    FuncSim a(assembleCache(test.source));
    FuncSim b(assembleCache(small.source));
    // Use run limits generous enough for Small.
    const uint64_t na = a.run(100'000'000).instCount;
    const uint64_t nb = b.run(100'000'000).instCount;
    EXPECT_GT(nb, na * 2) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, WorkloadTest,
    ::testing::Values("compress", "gcc", "go", "jpeg", "li", "m88ksim",
                      "perl", "vortex"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Workloads, RegistryHasAllEightInPaperOrder)
{
    const auto all = allWorkloads(WorkloadSize::Test);
    ASSERT_EQ(all.size(), 8u);
    EXPECT_EQ(all[0].name, "compress");
    EXPECT_EQ(all[5].name, "m88ksim");
    for (const Workload &w : all) {
        EXPECT_FALSE(w.substitutes.empty());
        EXPECT_FALSE(w.description.empty());
        EXPECT_FALSE(w.source.empty());
    }
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_THROW(getWorkload("nonesuch", WorkloadSize::Test),
                 FatalError);
}

TEST(Workloads, SizeNamesRoundTrip)
{
    for (WorkloadSize size : {WorkloadSize::Test, WorkloadSize::Small,
                              WorkloadSize::Default}) {
        WorkloadSize parsed = WorkloadSize::Test;
        EXPECT_TRUE(parseWorkloadSize(sizeName(size), parsed))
            << sizeName(size);
        EXPECT_EQ(parsed, size) << sizeName(size);
    }
    WorkloadSize full = WorkloadSize::Test;
    EXPECT_TRUE(parseWorkloadSize("full", full));
    EXPECT_EQ(full, WorkloadSize::Default);

    // A refused name leaves the output alone.
    for (const char *bad : {"", "Test", "huge", "small ", "?"}) {
        WorkloadSize out = WorkloadSize::Small;
        EXPECT_FALSE(parseWorkloadSize(bad, out)) << bad;
        EXPECT_EQ(out, WorkloadSize::Small) << bad;
    }
}

TEST(Workloads, DeterministicAcrossRuns)
{
    const Workload w = getWorkload("compress", WorkloadSize::Test);
    const Program p1 = assemble(w.source);
    const Program p2 = assemble(w.source);
    FuncSim a(p1), b(p2);
    EXPECT_EQ(a.run().output, b.run().output);
}

} // namespace
} // namespace slip
