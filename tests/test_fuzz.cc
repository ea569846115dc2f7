/**
 * Unit tests for the differential-fuzzing stack: generator
 * determinism and structure, oracle verdicts (clean programs and an
 * armed undetectable fault), greedy minimization, campaign-level
 * determinism across worker counts, and the SLIP_INVARIANT runtime
 * gating.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "assembler/assembler.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/minimize.hh"
#include "fuzz/oracle.hh"

namespace slip::fuzz
{
namespace
{

namespace fs = std::filesystem;

FaultPlan
demoFault()
{
    // A memory-cell flip: invisible to slipstream redundancy (the
    // paper leaves main memory to ECC), so the oracle must diverge.
    FaultPlan plan;
    plan.target = FaultTarget::MemoryCell;
    plan.dynIndex = 40;
    plan.bit = 13;
    return plan;
}

/** A seed the demo fault is known to corrupt observably. */
constexpr uint64_t kDivergingSeed = 0;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override { setLogQuiet(true); }
    void TearDown() override { setLogQuiet(false); }
};

using Generator = QuietLogs;
using Oracle = QuietLogs;
using Minimizer = QuietLogs;
using Fuzzer = QuietLogs;

TEST_F(Generator, SameSeedSameProgram)
{
    const GeneratorConfig cfg;
    EXPECT_EQ(generate(5, cfg).render(), generate(5, cfg).render());
    EXPECT_NE(generate(5, cfg).render(), generate(6, cfg).render());
}

TEST_F(Generator, ProgramsAssembleAndHaveRemovableUnits)
{
    for (uint64_t seed = 0; seed < 25; ++seed) {
        const GeneratedProgram gp = generate(seed);
        EXPECT_NO_THROW(assemble(gp.render())) << "seed " << seed;
        EXPECT_GT(gp.removableCount(), 0u) << "seed " << seed;
    }
}

TEST_F(Generator, RenderWithMaskKeepsScaffolding)
{
    const GeneratedProgram gp = generate(3);
    const std::vector<bool> all(gp.units.size(), true);
    EXPECT_EQ(gp.render(all), gp.render());

    // Dropping every removable unit must still leave an assemblable
    // skeleton (prologue + epilogue): the minimizer relies on this.
    const std::vector<bool> none(gp.units.size(), false);
    const std::string skeleton = gp.render(none);
    EXPECT_LT(skeleton.size(), gp.render().size());
    EXPECT_NO_THROW(assemble(skeleton));
}

TEST_F(Oracle, CleanProgramProducesNoDivergence)
{
    const OracleVerdict v =
        runOracle(assemble(generate(kDivergingSeed).render()));
    EXPECT_FALSE(v.diverged) << v.report;
    EXPECT_TRUE(v.report.empty());
}

TEST_F(Oracle, UndetectableMemoryFaultDiverges)
{
    OracleOptions opt;
    opt.faults.push_back(demoFault());
    const OracleVerdict v =
        runOracle(assemble(generate(kDivergingSeed).render()), opt);
    EXPECT_TRUE(v.diverged);
    EXPECT_FALSE(v.report.empty());
    // The report names the leg it caught and what differed.
    EXPECT_NE(v.report.find("slipstream"), std::string::npos)
        << v.report;
}

TEST_F(Oracle, VerdictIsDeterministic)
{
    OracleOptions opt;
    opt.faults.push_back(demoFault());
    const Program p = assemble(generate(kDivergingSeed).render());
    const OracleVerdict a = runOracle(p, opt);
    const OracleVerdict b = runOracle(p, opt);
    EXPECT_EQ(a.diverged, b.diverged);
    EXPECT_EQ(a.report, b.report);
}

TEST_F(Minimizer, ShrinksDivergingProgram)
{
    OracleOptions opt;
    opt.faults.push_back(demoFault());
    const GeneratedProgram gp = generate(kDivergingSeed);
    ASSERT_TRUE(runOracle(assemble(gp.render()), opt).diverged);

    const MinimizeResult mr =
        minimize(gp, [&opt](const std::string &candidate) {
            try {
                return runOracle(assemble(candidate), opt).diverged;
            } catch (const std::exception &) {
                return false;
            }
        });
    EXPECT_GT(mr.unitsRemoved, 0u);
    EXPECT_LT(mr.source.size(), gp.render().size());
    // The minimized program still reproduces the divergence.
    EXPECT_TRUE(runOracle(assemble(mr.source), opt).diverged);
}

TEST_F(Minimizer, PredicateControlsWhatSurvives)
{
    const GeneratedProgram gp = generate(4);

    // Nothing reproduces on any candidate: every trial removal is
    // rolled back, so the program survives untouched.
    const MinimizeResult none =
        minimize(gp, [](const std::string &) { return false; });
    EXPECT_EQ(none.unitsRemoved, 0u);
    EXPECT_EQ(none.unitsKept, gp.removableCount());
    EXPECT_EQ(none.source, gp.render());

    // Everything reproduces: greedy minimization strips every
    // removable unit, leaving just the fixed scaffolding.
    const MinimizeResult all =
        minimize(gp, [](const std::string &) { return true; });
    EXPECT_EQ(all.unitsRemoved, gp.removableCount());
    EXPECT_EQ(all.unitsKept, 0u);
    EXPECT_NO_THROW(assemble(all.source));
}

TEST_F(Fuzzer, CleanWindowReportsNoFindings)
{
    FuzzOptions opt;
    opt.seedBegin = 0;
    opt.seedEnd = 6;
    opt.bundleDir.clear();
    const FuzzSummary s = runFuzz(opt);
    EXPECT_EQ(s.seedsRun, 6u);
    EXPECT_EQ(s.divergences, 0u);
    EXPECT_EQ(s.errors, 0u);
    EXPECT_TRUE(s.findings.empty());
}

TEST_F(Fuzzer, FaultCampaignWritesMinimizedBundles)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "slip_fuzz_bundles";
    fs::remove_all(dir);

    FuzzOptions opt;
    opt.seedBegin = 0;
    opt.seedEnd = 3;
    opt.oracle.faults.push_back(demoFault());
    opt.bundleDir = dir.string();
    const FuzzSummary s = runFuzz(opt);
    EXPECT_GE(s.divergences, 1u);
    ASSERT_FALSE(s.findings.empty());

    const FuzzCase &c = s.findings.front();
    EXPECT_TRUE(c.diverged);
    ASSERT_FALSE(c.bundlePath.empty());
    EXPECT_TRUE(fs::exists(fs::path(c.bundlePath) / "README.txt"));
    EXPECT_TRUE(fs::exists(fs::path(c.bundlePath) / "program.s"));
    EXPECT_TRUE(fs::exists(fs::path(c.bundlePath) / "report.txt"));
    EXPECT_TRUE(fs::exists(fs::path(c.bundlePath) / "disasm.txt"));

    // The bundled program is self-contained: reassembling it
    // reproduces the divergence under the same oracle options.
    std::ifstream in(fs::path(c.bundlePath) / "program.s");
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_TRUE(runOracle(assemble(buf.str()), opt.oracle).diverged);

    fs::remove_all(dir);
}

TEST_F(Fuzzer, ResultsAreIdenticalAcrossWorkerCounts)
{
    const auto campaign = [](unsigned jobs, IsolationMode isolation) {
        FuzzOptions opt;
        opt.seedBegin = 0;
        opt.seedEnd = 12;
        opt.jobs = jobs;
        opt.isolation = isolation;
        opt.minimizeDivergences = false;
        opt.bundleDir.clear();
        opt.oracle.faults.push_back(demoFault());
        return runFuzz(opt);
    };
    const FuzzSummary one = campaign(1, IsolationMode::None);
    EXPECT_GT(one.divergences, 0u);
    for (const IsolationMode isolation :
         {IsolationMode::None, IsolationMode::Fork}) {
        SCOPED_TRACE(isolationModeName(isolation));
        const FuzzSummary four = campaign(4, isolation);
        EXPECT_EQ(one.divergences, four.divergences);
        EXPECT_EQ(four.workerCrashes, 0u);
        ASSERT_EQ(one.findings.size(), four.findings.size());
        for (size_t i = 0; i < one.findings.size(); ++i) {
            EXPECT_EQ(one.findings[i].seed, four.findings[i].seed);
            EXPECT_EQ(one.findings[i].report, four.findings[i].report);
        }
    }
}

// SLIPSTREAM_DISABLE_INVARIANTS=ON turns every SLIP_INVARIANT into a
// no-op; the runtime-gating tests only make sense with the sites in.
#ifdef SLIPSTREAM_DISABLE_INVARIANTS

TEST(Invariants, CompiledOut)
{
    GTEST_SKIP()
        << "invariants compiled out (SLIPSTREAM_DISABLE_INVARIANTS)";
}

#else

TEST(Invariants, MacroThrowsOnlyWhenEnabled)
{
    {
        invariants::Scope on(true);
        EXPECT_TRUE(SLIP_INVARIANTS_ACTIVE());
        EXPECT_NO_THROW(SLIP_INVARIANT(1 + 1 == 2, "arithmetic"));
        EXPECT_THROW(SLIP_INVARIANT(1 + 1 == 3, "broken math"),
                     InvariantViolation);
    }
    {
        invariants::Scope off(false);
        EXPECT_FALSE(SLIP_INVARIANTS_ACTIVE());
        EXPECT_NO_THROW(SLIP_INVARIANT(false, "disabled, never fires"));
    }
}

TEST(Invariants, ViolationMessageCarriesContext)
{
    invariants::Scope on(true);
    try {
        SLIP_INVARIANT(false, "occupancy ", 7, " exceeds capacity ", 4);
        FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("occupancy 7 exceeds capacity 4"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("invariant failed"), std::string::npos);
    }
}

TEST(Invariants, ScopeRestoresPreviousState)
{
    const bool before = invariants::enabled();
    {
        invariants::Scope a(true);
        EXPECT_TRUE(invariants::enabled());
        {
            invariants::Scope b(false);
            EXPECT_FALSE(invariants::enabled());
        }
        EXPECT_TRUE(invariants::enabled());
    }
    EXPECT_EQ(invariants::enabled(), before);
}

#endif // SLIPSTREAM_DISABLE_INVARIANTS

} // namespace
} // namespace slip::fuzz
