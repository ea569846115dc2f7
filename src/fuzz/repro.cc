#include "fuzz/repro.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "isa/disasm.hh"

namespace slip::fuzz
{

namespace
{

void
writeFile(const std::filesystem::path &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        SLIP_FATAL("cannot write repro file ", path.string());
    out << content;
    if (!out.good())
        SLIP_FATAL("short write to repro file ", path.string());
}

/** Disassemble an assembled program, one labeled line per word. */
std::string
disassembly(const std::string &source)
{
    std::ostringstream os;
    try {
        const Program p = assemble(source);
        for (Addr pc = p.textBase(); pc < p.textEnd();
             pc += kInstBytes) {
            os << "0x" << std::hex << pc << std::dec << ":  "
               << disassemble(p.fetch(pc), pc) << "\n";
        }
    } catch (const std::exception &e) {
        os << "(disassembly unavailable: " << e.what() << ")\n";
    }
    return os.str();
}

} // namespace

std::string
describeFaults(const std::vector<FaultPlan> &faults)
{
    std::ostringstream os;
    for (size_t i = 0; i < faults.size(); ++i) {
        if (i)
            os << "; ";
        os << "target=" << faultTargetName(faults[i].target)
           << " index=" << faults[i].dynIndex
           << " bit=" << faults[i].bit;
        if (faults[i].target == FaultTarget::ARegister)
            os << " reg=" << unsigned(faults[i].reg);
    }
    return os.str();
}

std::string
writeReproBundle(const std::string &outDir, const ReproSpec &spec)
{
    namespace fs = std::filesystem;
    const std::string name = !spec.bundleName.empty()
                                 ? spec.bundleName
                                 : "seed_" + std::to_string(spec.seed);
    const fs::path dir = fs::path(outDir) / name;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        SLIP_FATAL("cannot create repro bundle directory ",
                   dir.string(), ": ", ec.message());

    const bool shrunk = spec.minimizedSource != spec.originalSource;

    const std::string title = !spec.title.empty()
                                  ? spec.title
                                  : "SSIR differential-fuzz divergence";
    std::ostringstream readme;
    readme << title << "\n"
           << std::string(title.size(), '=') << "\n\n"
           << "seed:       " << spec.seed << "\n"
           << "generator:  " << spec.configSummary << "\n";
    if (!spec.faults.empty())
        readme << "faults:     " << describeFaults(spec.faults) << "\n";
    if (shrunk) {
        readme << "minimized:  removed " << spec.unitsRemoved
               << " units in " << spec.oracleEvaluations
               << " oracle evaluations\n";
    }
    readme << "\nreplay:\n"
           << "  "
           << (!spec.replayCommand.empty()
                   ? spec.replayCommand
                   : "tools/ssir_fuzz --replay " +
                         (dir / "program.s").string())
           << "\n\nfiles:\n"
           << "  program.s       minimized reproducer\n";
    if (shrunk)
        readme << "  program_full.s  original generated program\n";
    readme << "  disasm.txt      disassembly of program.s\n"
           << "  report.txt      the divergence report\n";

    writeFile(dir / "README.txt", readme.str());
    writeFile(dir / "program.s", spec.minimizedSource);
    if (shrunk)
        writeFile(dir / "program_full.s", spec.originalSource);
    writeFile(dir / "disasm.txt", disassembly(spec.minimizedSource));
    writeFile(dir / "report.txt", spec.report + "\n");
    return dir.string();
}

} // namespace slip::fuzz
