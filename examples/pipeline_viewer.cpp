/**
 * Pipeline viewer: runs a small program on the SS(64x4) core and
 * prints a per-instruction retirement timeline — a cheap "pipeline
 * diagram" showing how the trace-predictor-driven front end, the
 * out-of-order engine, and branch mispredictions shape the schedule.
 */

#include <iomanip>
#include <iostream>

#include "assembler/assembler.hh"
#include "isa/disasm.hh"
#include "uarch/ss_processor.hh"

int
main()
{
    using namespace slip;
    setLogQuiet(true);

    const char *source = R"(
.data
v: .dword 3
.text
main:
    ld   t0, v          # load feeds the chain below
    li   t1, 10
loop:
    mul  t2, t0, t1     # long-latency op on the critical path
    add  t3, t3, t2
    addi t1, t1, -1
    bnez t1, loop
    putn t3
    halt
)";

    const Program program = assemble(source);
    std::cout << "program:\n";
    for (Addr pc = program.textBase(); pc < program.textEnd();
         pc += kInstBytes) {
        std::cout << "  0x" << std::hex << pc << std::dec << "  "
                  << disassemble(program.fetch(pc), pc) << "\n";
    }

    SSProcessor proc(program);
    std::cout << "\nretirement timeline (cycle: instruction):\n";
    uint64_t lastCycle = 0;
    proc.core().onRetire = [&](const DynInst &d, Cycle cycle) {
        proc.fetchSource().notifyRetire(d);
        if (cycle != lastCycle)
            std::cout << "\n";
        lastCycle = cycle;
        std::cout << "  " << std::setw(5) << cycle << ": 0x" << std::hex
                  << d.pc << std::dec << " "
                  << disassemble(*d.si, d.pc)
                  << (d.mispredicted ? "   <-- mispredicted" : "")
                  << "\n";
        return true;
    };

    const SSRunResult r = proc.run();
    std::cout << "\n" << r.retired << " instructions in " << r.cycles
              << " cycles (IPC " << std::fixed << std::setprecision(2)
              << r.ipc() << "), " << r.branchMispredicts
              << " branch mispredicts\noutput: " << r.output;
    return 0;
}
