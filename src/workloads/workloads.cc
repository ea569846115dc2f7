#include "workloads/workloads.hh"

#include "common/logging.hh"

namespace slip
{

const char *
sizeName(WorkloadSize size)
{
    switch (size) {
      case WorkloadSize::Test:
        return "test";
      case WorkloadSize::Small:
        return "small";
      case WorkloadSize::Default:
        return "default";
    }
    return "?";
}

bool
parseWorkloadSize(const std::string &text, WorkloadSize &out)
{
    for (WorkloadSize size : {WorkloadSize::Test, WorkloadSize::Small,
                              WorkloadSize::Default}) {
        if (text == sizeName(size)) {
            out = size;
            return true;
        }
    }
    if (text != "full")
        return false;
    out = WorkloadSize::Default;
    return true;
}

std::vector<Workload>
allWorkloads(WorkloadSize size)
{
    return {
        {"compress", "SPEC95 compress (40000 e 2231)",
         "LZ-style compression, data-dependent branches",
         wlCompressSource(size)},
        {"gcc", "SPEC95 gcc (-O3 genrecog.i)",
         "expression tokenizing and constant folding",
         wlGccSource(size)},
        {"go", "SPEC95 go (99)",
         "board evaluation with capture search", wlGoSource(size)},
        {"jpeg", "SPEC95 ijpeg (vigo.ppm)",
         "integer 8x8 DCT and quantization", wlJpegSource(size)},
        {"li", "SPEC95 li (test.lsp: queens 7)",
         "N-queens backtracking recursion", wlLiSource(size)},
        {"m88ksim", "SPEC95 m88ksim (-c dcrand.big)",
         "toy-CPU instruction-set interpreter", wlM88kSource(size)},
        {"perl", "SPEC95 perl (scrabble.pl)",
         "dictionary word scoring with hashing", wlPerlSource(size)},
        {"vortex", "SPEC95 vortex (persons.250)",
         "in-memory object database operations",
         wlVortexSource(size)},
    };
}

Workload
getWorkload(const std::string &name, WorkloadSize size)
{
    for (Workload &w : allWorkloads(size)) {
        if (w.name == name)
            return w;
    }
    SLIP_FATAL("unknown workload '", name, "'");
}

} // namespace slip
