/**
 * @file
 * The benchmark suite: eight SSIR workloads substituting for the
 * SPEC95 integer benchmarks the paper evaluates (Table 1). SPEC95 is
 * proprietary and the SimpleScalar toolchain is unavailable, so each
 * workload is written from scratch to mirror its original's
 * *character* — the branch-predictability and ineffectual-write
 * profile that drives slipstream behaviour:
 *
 *   compress  LZ-style compressor on pseudo-random text: data-
 *             dependent branches, poor predictability.
 *   gcc       expression tokenizer + constant folder over generated
 *             source: mixed predictability, many short functions.
 *   go        board-position evaluator with capture search: data-
 *             dependent control, modest predictability.
 *   jpeg      integer 8x8 DCT + quantization over an image: regular
 *             loops, high ILP, very predictable.
 *   li        N-queens backtracking interpreter-style recursion (the
 *             paper's li runs `(queens 7)`).
 *   m88ksim   instruction-set interpreter of a toy CPU running a
 *             fixed program: near-deterministic dispatch, many dead
 *             condition-flag writes — the paper's best case.
 *   perl      dictionary word scoring with string hashing (the
 *             paper's perl runs a scrabble game).
 *   vortex    in-memory object database: insert/lookup/traverse with
 *             redundant status-field writes — predictable control.
 *
 * Each workload is self-contained: inputs are generated in-program
 * from a deterministic LCG, and each prints a checksum so runs are
 * self-validating against the functional simulator.
 */

#ifndef SLIPSTREAM_WORKLOADS_WORKLOADS_HH
#define SLIPSTREAM_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

namespace slip
{

/** Dynamic-instruction-count scale for a workload. */
enum class WorkloadSize
{
    Test,    // tens of thousands of instructions (unit tests)
    Small,   // a few hundred thousand (quick benches)
    Default, // a few million (paper-style evaluation)
};

/** The greatest size (the wire decoder's range check). */
constexpr WorkloadSize
lastEnumerator(WorkloadSize)
{
    return WorkloadSize::Default;
}

/** "test" / "small" / "default" — cache keys and $SLIPSTREAM_BENCH_SIZE. */
const char *sizeName(WorkloadSize size);

/** One benchmark program. */
struct Workload
{
    std::string name;        // e.g. "m88ksim"
    std::string substitutes; // e.g. "SPEC95 m88ksim (-c dcrand.big)"
    std::string description; // one-line behaviour summary
    std::string source;      // SSIR assembly text
};

/** All eight workloads at the given size, in the paper's order. */
std::vector<Workload> allWorkloads(WorkloadSize size);

/** Look up one workload by name; fatal if unknown. */
Workload getWorkload(const std::string &name, WorkloadSize size);

/** The per-workload source generators. */
std::string wlCompressSource(WorkloadSize size);
std::string wlGccSource(WorkloadSize size);
std::string wlGoSource(WorkloadSize size);
std::string wlJpegSource(WorkloadSize size);
std::string wlLiSource(WorkloadSize size);
std::string wlM88kSource(WorkloadSize size);
std::string wlPerlSource(WorkloadSize size);
std::string wlVortexSource(WorkloadSize size);

} // namespace slip

#endif // SLIPSTREAM_WORKLOADS_WORKLOADS_HH
