/**
 * The retire-time value contract. A retire observer (a detection
 * backend, the fuzz oracle) reads each retired instruction's outcome
 * through DynInst::exec, which points into storage the instruction's
 * source owns: an R-stream retire record, or a TraceFetchSource
 * training record (SS, and CMP after degrading to R-only). For every
 * retired instruction, the pc and the values an observer reads must
 * equal a functional reference stepped alongside with executeMicro.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "assembler/assembler.hh"
#include "func/arch_state.hh"
#include "func/executor.hh"
#include "fuzz/generator.hh"
#include "isa/regnames.hh"
#include "mem/memory.hh"
#include "slipstream/slipstream_processor.hh"
#include "uarch/ss_processor.hh"
#include "workloads/workloads.hh"

namespace slip
{
namespace
{

/** The functional reference, checked against each retirement. */
class Reference
{
  public:
    explicit Reference(const Program &program)
        : program(program), port(mem), state(port)
    {
        program.loadInto(mem);
        state.setPc(program.entry());
        state.writeReg(reg::sp, layout::kStackTop);
    }

    /** Rejoin the retired stream after a gap (degrade to R-only). */
    void
    resync(const ArchState &arch, const Memory &archMem)
    {
        state.copyRegsFrom(arch);
        state.setPc(arch.pc());
        mem = archMem.clone();
    }

    /** Step the reference and compare what an observer reads of `d`. */
    void
    check(const DynInst &d)
    {
        ++checked;
        if (mismatches > 0)
            return; // the first difference is the one worth reading
        const Addr pc = state.pc();
        ExecResult want;
        executeMicro(state, program.microAt(pc), nullptr, want);
        std::ostringstream os;
        if (d.pc != pc) {
            os << "pc 0x" << std::hex << d.pc << " != 0x" << pc;
        } else if (!d.exec) {
            os << "no outcome";
        } else {
            const ExecResult &got = *d.exec;
            if (got.wroteReg != want.wroteReg ||
                (want.wroteReg && got.destValue != want.destValue))
                os << "destValue " << got.destValue << " != "
                   << want.destValue;
            else if (want.isMem && got.memAddr != want.memAddr)
                os << "memAddr 0x" << std::hex << got.memAddr
                   << " != 0x" << want.memAddr;
            else if (d.si->isStore() && got.storeValue != want.storeValue)
                os << "storeValue " << got.storeValue
                   << " != " << want.storeValue;
        }
        if (!os.str().empty()) {
            ++mismatches;
            first = "retirement " + std::to_string(checked) + " at pc " +
                    std::to_string(pc) + ": " + os.str();
        }
    }

    uint64_t checked = 0;
    uint64_t mismatches = 0;
    std::string first;

  private:
    const Program &program;
    Memory mem;
    DirectMemPort port;
    ArchState state;
};

/** Run CMP with the observer on onArchRetire. */
SlipstreamRunResult
checkCmp(const Program &program, Cycle degradeAt, const std::string &what)
{
    SlipstreamParams params;
    params.degrade.forceAtCycle = degradeAt;
    SlipstreamProcessor proc(program, params);
    Reference ref(program);
    proc.onArchRetire = [&](const DynInst &d, Cycle) { ref.check(d); };
    proc.onDegradeEvent = [&](Cycle) {
        ref.resync(proc.archState(), proc.rMemory());
    };
    const SlipstreamRunResult r = proc.run(20'000'000);
    EXPECT_TRUE(r.halted) << what;
    EXPECT_EQ(r.degraded, degradeAt != 0) << what;
    EXPECT_EQ(ref.mismatches, 0u) << what << ": " << ref.first;
    EXPECT_EQ(ref.checked, r.rRetired) << what;
    return r;
}

/**
 * CMP, then again degraded to R-only halfway: the later outcomes come
 * from the resumed TraceFetchSource's training records.
 */
uint64_t
checkCmpBothModes(const Program &program, const std::string &what)
{
    const SlipstreamRunResult r = checkCmp(program, 0, what);
    checkCmp(program, r.cycles / 2, what + " degraded");
    return r.rRetired;
}

/** Run SS with the observer wrapped around the core's retire hook. */
void
checkSs(const Program &program, const std::string &what)
{
    SSProcessor proc(program);
    Reference ref(program);
    auto release = proc.core().onRetire;
    proc.core().onRetire = [&](const DynInst &d, Cycle now) {
        ref.check(d);
        return release(d, now);
    };
    const SSRunResult r = proc.run(20'000'000);
    EXPECT_TRUE(r.halted) << what;
    EXPECT_EQ(ref.mismatches, 0u) << what << ": " << ref.first;
    EXPECT_EQ(ref.checked, r.retired) << what;
}

TEST(RetireValues, CmpObserverSeesReferenceValuesOnWorkloads)
{
    for (const char *name : {"m88ksim", "li"}) {
        const Program program =
            assemble(getWorkload(name, WorkloadSize::Test).source);
        EXPECT_GT(checkCmpBothModes(program, name), 10'000u);
    }
}

TEST(RetireValues, SsObserverSeesReferenceValuesOnWorkloads)
{
    for (const char *name : {"m88ksim", "li"}) {
        const Program program =
            assemble(getWorkload(name, WorkloadSize::Test).source);
        checkSs(program, name);
    }
}

TEST(RetireValues, ObserversSeeReferenceValuesOnFuzzPrograms)
{
    for (uint64_t seed = 0; seed < 6; ++seed) {
        const Program program = assemble(fuzz::generate(seed).render());
        const std::string what = "fuzz seed " + std::to_string(seed);
        checkCmpBothModes(program, what);
        checkSs(program, what);
    }
}

} // namespace
} // namespace slip
