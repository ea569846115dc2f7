/**
 * Component microbenchmarks (google-benchmark): throughput of the
 * hot structures — trace predictor lookup/update, IR-detector trace
 * merging, the delay buffer, the recovery overlay, the OoO core,
 * cache access, the assembler, and the functional simulator — and
 * the host cost of each simulated configuration (SS(64x4),
 * CMP(2x64x4), one fault-campaign trial) relative to the
 * reference executor, which CI gates on, and what building a
 * processor costs before its first cycle. These guard the
 * *simulator's* own performance (host MIPS), which bounds how large
 * the paper-scale experiments can be.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <deque>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "common/cancel.hh"
#include "common/random.hh"
#include "func/executor.hh"
#include "func/func_sim.hh"
#include "harness/experiment.hh"
#include "harness/fault_campaign.hh"
#include "harness/sim_runner.hh"
#include "mem/memory.hh"
#include "mem/cache.hh"
#include "slipstream/ir_detector.hh"
#include "slipstream/ir_predictor.hh"
#include "slipstream/recovery_controller.hh"
#include "slipstream/slipstream_processor.hh"
#include "uarch/fetch_source.hh"
#include "uarch/trace_pred.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace slip;

void
BM_TracePredictorLookup(benchmark::State &state)
{
    TracePredictor pred;
    PathHistory h;
    TraceId ids[16];
    for (unsigned i = 0; i < 16; ++i) {
        ids[i] = TraceId{0x1000 + i * 0x80, i, 4, 16};
        pred.update(h, ids[i]);
        h.push(ids[i]);
    }
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pred.predict(h));
        h.push(ids[i++ & 15]);
    }
}
BENCHMARK(BM_TracePredictorLookup);

void
BM_TracePredictorUpdate(benchmark::State &state)
{
    TracePredictor pred;
    PathHistory h;
    uint64_t i = 0;
    for (auto _ : state) {
        const TraceId id{0x1000 + (i & 255) * 4, i & 7, 3, 16};
        pred.update(h, id);
        h.push(id);
        ++i;
    }
}
BENCHMARK(BM_TracePredictorUpdate);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheParams{"bench", 64 * 1024, 4, 64, 1, 12});
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr = (addr + 4096 + 64) & 0xfffff;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_IRPredictorUpdate(benchmark::State &state)
{
    IRPredictor pred;
    PathHistory h;
    RemovalPlan plan;
    plan.irVec = 0x5555;
    plan.reasons.assign(16, reason::kBR);
    uint64_t i = 0;
    for (auto _ : state) {
        const TraceId id{0x1000 + (i & 63) * 4, 0, 0, 16};
        pred.update(h, id, plan);
        ++i;
    }
}
BENCHMARK(BM_IRPredictorUpdate);

/** Host nanoseconds spent in `body`, which returns its item count. */
template <typename Body>
uint64_t
timedItems(double &ns, Body &&body)
{
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t items = body();
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - t0)
              .count();
    return items;
}

/** The R-stream's validated traces, as the IR-detector received them. */
struct RetiredTraceStream
{
    std::vector<Packet> packets;
    std::vector<std::vector<ExecResult>> rExec;
    std::vector<PathHistory> historyBefore;
};

/** The first traces m88ksim (test size) retires on CMP(2x64x4). */
const RetiredTraceStream &
cannedRetiredTraces()
{
    static const RetiredTraceStream stream = [] {
        constexpr size_t kTraces = 4096;
        const Program p =
            assemble(getWorkload("m88ksim", WorkloadSize::Test).source);
        SlipstreamProcessor proc(p, cmp2x64x4Params());
        RetiredTraceStream s;
        PathHistory history;
        RStreamSource &rs = proc.rSource();
        rs.onPacketRetired = [&, inner = rs.onPacketRetired](
                                 const Packet &packet,
                                 const std::vector<ExecResult> &rExec) {
            if (s.packets.size() < kTraces) {
                s.packets.push_back(packet);
                s.rExec.push_back(rExec);
                s.historyBefore.push_back(history);
                history.push(packet.actualId);
            }
            inner(packet, rExec);
        };
        proc.run();
        return s;
    }();
    return stream;
}

// One pass feeds the canned stream to a warm detector (the predictor
// keeps what earlier passes trained), then drains and resets it.
void
BM_IRDetectorProcessTrace(benchmark::State &state)
{
    const RetiredTraceStream &s = cannedRetiredTraces();
    IRPredictor pred;
    IRDetector detector(IRDetectorParams{}, pred);
    double ns = 0;
    uint64_t traces = 0;
    for (auto _ : state) {
        traces += timedItems(ns, [&] {
            for (size_t i = 0; i < s.packets.size(); ++i)
                detector.processTrace(RetiredTrace{
                    &s.packets[i], &s.rExec[i], &s.historyBefore[i]});
            detector.drain();
            return s.packets.size();
        });
        detector.reset();
    }
    state.counters["ns/trace"] = ns / double(traces);
}
BENCHMARK(BM_IRDetectorProcessTrace);

// One pass streams the canned packets through one delay buffer, the
// consumer popping whenever the producer would overflow it. Packets
// trade storage with the buffer, so the pass leaves every packet back
// in its vector slot and the steady state allocates nothing.
void
BM_DelayBufferRoundTrip(benchmark::State &state)
{
    std::vector<Packet> packets = cannedRetiredTraces().packets;
    DelayBuffer db;
    double ns = 0;
    uint64_t moved = 0;
    for (auto _ : state) {
        moved += timedItems(ns, [&] {
            size_t consumed = 0;
            for (Packet &p : packets) {
                while (!db.canPush(p.executedCount))
                    db.pop(packets[consumed++]);
                db.push(p);
            }
            while (!db.empty())
                db.pop(packets[consumed++]);
            return packets.size();
        });
        benchmark::DoNotOptimize(packets.data());
        benchmark::ClobberMemory();
    }
    state.counters["ns/packet"] = ns / double(moved);
}
BENCHMARK(BM_DelayBufferRoundTrip);

/** One A-stream memory access or R-stream store retirement. */
struct OverlayOp
{
    enum Kind : uint8_t { Load, Store, RRetire } kind;
    uint8_t bytes;
    Addr addr;
    uint64_t value;
};

/**
 * A seeded stream of A loads and stores over a 4 KB hot region, each
 * A store followed 32 stores later by its R-stream twin (same data)
 * retiring, as the streams do when no IR-misprediction intervenes.
 * Every store is retired by the end, so each pass starts and ends
 * with an empty overlay.
 */
const std::vector<OverlayOp> &
overlayOps()
{
    static const std::vector<OverlayOp> ops = [] {
        constexpr size_t kOps = 1 << 16;
        constexpr size_t kLag = 32;
        Rng rng(7);
        std::vector<OverlayOp> out;
        std::vector<OverlayOp> inFlight;
        size_t retired = 0;
        while (out.size() < kOps) {
            const uint8_t bytes = uint8_t(1u << rng.below(4));
            const Addr addr =
                0x100000 + (rng.below(4096) & ~Addr(bytes - 1));
            if (rng.below(3) != 0) {
                out.push_back({OverlayOp::Load, bytes, addr, 0});
                continue;
            }
            const OverlayOp store{OverlayOp::Store, bytes, addr,
                                  rng.next()};
            out.push_back(store);
            inFlight.push_back(store);
            if (inFlight.size() - retired > kLag) {
                out.push_back(inFlight[retired++]);
                out.back().kind = OverlayOp::RRetire;
            }
        }
        while (retired < inFlight.size()) {
            out.push_back(inFlight[retired++]);
            out.back().kind = OverlayOp::RRetire;
        }
        return out;
    }();
    return ops;
}

// An R retirement first writes the store to R memory (the R-stream
// executes it at walk time), then closes its undo window.
void
BM_RecoveryControllerAccess(benchmark::State &state)
{
    const std::vector<OverlayOp> &ops = overlayOps();
    Memory rMem;
    RecoveryController rc(rMem);
    uint64_t sink = 0;
    double ns = 0;
    uint64_t accesses = 0;
    for (auto _ : state) {
        accesses += timedItems(ns, [&] {
            for (const OverlayOp &op : ops) {
                switch (op.kind) {
                  case OverlayOp::Load:
                    sink += rc.read(op.addr, op.bytes);
                    break;
                  case OverlayOp::Store:
                    rc.write(op.addr, op.bytes, op.value);
                    break;
                  case OverlayOp::RRetire:
                    rMem.write(op.addr, op.bytes, op.value);
                    rc.onRStoreRetired(op.addr, op.bytes);
                    break;
                }
            }
            return ops.size();
        });
    }
    benchmark::DoNotOptimize(sink);
    state.counters["ns/access"] = ns / double(accesses);
}
BENCHMARK(BM_RecoveryControllerAccess);

/** Replays recorded fetch blocks, one per nextBlock() call. */
class ReplaySource : public FetchSource
{
  public:
    explicit ReplaySource(const std::vector<FetchBlock> &blocks)
        : blocks(blocks)
    {}

    bool
    nextBlock(FetchBlock &block) override
    {
        if (next == blocks.size())
            return false;
        block.startAddr = blocks[next].startAddr;
        block.insts = blocks[next].insts; // reuses the core's storage
        ++next;
        return true;
    }

    bool exhausted() const override { return next == blocks.size(); }

  private:
    const std::vector<FetchBlock> &blocks;
    size_t next = 0;
};

/**
 * Every fetch block SS(64x4) fetches running m88ksim (test size), kept
 * with what the recorded instructions point at: the program text and
 * their outcomes (the fetch source that owned those is gone).
 */
struct CannedStream
{
    CannedStream();

    const Program program;
    std::vector<FetchBlock> blocks;
    std::deque<ExecResult> outcomes; // stable addresses
};

CannedStream::CannedStream()
    : program(assemble(getWorkload("m88ksim", WorkloadSize::Test).source))
{
    const CoreParams params = ss64x4Params();
    TracePredictor predictor;
    TraceFetchSource source(program, predictor, params.fetchWidth);
    struct Recorder : FetchSource
    {
        TraceFetchSource &inner;
        CannedStream &out;
        Recorder(TraceFetchSource &inner, CannedStream &out)
            : inner(inner), out(out)
        {}
        bool
        nextBlock(FetchBlock &block) override
        {
            if (!inner.nextBlock(block))
                return false;
            FetchBlock &copy = out.blocks.emplace_back(block);
            for (DynInst &d : copy.insts)
                d.exec = &out.outcomes.emplace_back(*d.exec);
            return true;
        }
        bool exhausted() const override { return inner.exhausted(); }
    } recorder(source, *this);
    OoOCore core(params, recorder);
    core.onRetire = [&](const DynInst &d, Cycle) {
        source.notifyRetire(d);
        return true;
    };
    for (Cycle now = 0; !core.halted(); ++now)
        core.tick(now);
}

const std::vector<FetchBlock> &
cannedFetchBlocks()
{
    static const CannedStream canned;
    return canned.blocks;
}

// One pass runs a fresh SS(64x4) core over the recorded blocks to
// HALT: the core alone, with no functional execution or prediction.
void
BM_OoOCoreCannedStream(benchmark::State &state)
{
    const std::vector<FetchBlock> &blocks = cannedFetchBlocks();
    const CoreParams params = ss64x4Params();
    double ns = 0;
    uint64_t insts = 0;
    for (auto _ : state) {
        insts += timedItems(ns, [&] {
            ReplaySource source(blocks);
            OoOCore core(params, source);
            for (Cycle now = 0; !core.halted(); ++now)
                core.tick(now);
            return core.retiredCount();
        });
    }
    state.counters["ns/inst"] = ns / double(insts);
}
BENCHMARK(BM_OoOCoreCannedStream);

void
BM_Assembler(benchmark::State &state)
{
    const std::string src =
        getWorkload("m88ksim", WorkloadSize::Test).source;
    for (auto _ : state) {
        benchmark::DoNotOptimize(assemble(src));
    }
    state.SetLabel("m88ksim workload source");
}
BENCHMARK(BM_Assembler);

void
BM_FunctionalSimMips(benchmark::State &state)
{
    const Program p =
        assemble(getWorkload("jpeg", WorkloadSize::Test).source);
    uint64_t insts = 0;
    for (auto _ : state) {
        FuncSim sim(p);
        insts += sim.run().instCount;
    }
    state.counters["insts/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalSimMips);

/** The eight test-size programs, assembled and golden-run once. */
std::vector<const ProgramCache::Entry *>
testPrograms()
{
    std::vector<const ProgramCache::Entry *> out;
    for (const Workload &w : allWorkloads(WorkloadSize::Test))
        out.push_back(
            &ProgramCache::global().get(w.name, WorkloadSize::Test));
    return out;
}

/** Step execute() from `program`'s entry to its HALT; the count. */
uint64_t
referenceRun(const Program &program)
{
    FuncSim sim(program); // the initial state: data image, sp
    ArchState &state = sim.state();
    std::string output;
    uint64_t insts = 0;
    for (bool halted = false; !halted; ++insts)
        halted = execute(state, program.fetch(state.pc()), &output).halted;
    return insts;
}

/**
 * Host cost of one simulated configuration. Each iteration runs every
 * program through `simulate(i, program)`, which returns the R-retired
 * instruction count, and through execute(), the reference executor.
 * `ns/inst` is host time per R-retired instruction; `vs_func` divides
 * it by the reference's ns/inst over the same iterations, so host
 * speed and drift that slow both alike drop out of it. CI gates on
 * `vs_func` (lower is better). The reference is a plain decode switch
 * that no model runs: the computed-goto engine, whose speed moves
 * with where it lands in the binary, takes no part in the ratio.
 */
template <typename Simulate>
void
hostCost(benchmark::State &state,
         const std::vector<const ProgramCache::Entry *> &programs,
         Simulate &&simulate)
{
    double simNs = 0, refNs = 0;
    uint64_t simInsts = 0, refInsts = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < programs.size(); ++i) {
            simInsts += timedItems(
                simNs, [&] { return simulate(i, *programs[i]); });
            refInsts += timedItems(
                refNs, [&] { return referenceRun(programs[i]->program); });
        }
    }
    const double nsPerInst = simNs / double(simInsts);
    state.counters["ns/inst"] = nsPerInst;
    state.counters["vs_func"] = nsPerInst / (refNs / double(refInsts));
}

void
BM_HostCostSS64x4(benchmark::State &state)
{
    const CoreParams params = ss64x4Params();
    hostCost(state, testPrograms(),
             [&](size_t, const ProgramCache::Entry &e) {
                 return runSS(e.program, params, "SS(64x4)", e.golden)
                     .retired;
             });
}
BENCHMARK(BM_HostCostSS64x4);

void
BM_HostCostCmp(benchmark::State &state, const SlipstreamParams &params)
{
    hostCost(state, testPrograms(),
             [&](size_t, const ProgramCache::Entry &e) {
                 return runSlipstream(e.program, params, e.golden)
                     .retired;
             });
}
BENCHMARK_CAPTURE(BM_HostCostCmp, ir, cmp2x64x4Params());

// One planned trial per program (test size, the default seed), run
// as batch campaigns run it.
void
BM_HostCostCampaignTrial(benchmark::State &state)
{
    FaultCampaignConfig cfg;
    cfg.trialsPerWorkload = 1;
    const std::vector<CampaignTrialSpec> specs = planCampaignTrials(cfg);
    std::vector<const ProgramCache::Entry *> programs;
    for (const CampaignTrialSpec &spec : specs)
        programs.push_back(
            static_cast<const ProgramCache::Entry *>(spec.entry));
    const CancelToken cancel;
    hostCost(state, programs, [&](size_t i, const ProgramCache::Entry &) {
        return runCampaignTrial(cfg, specs[i], i, cancel).retired;
    });
}
BENCHMARK(BM_HostCostCampaignTrial);

// Construct and destroy one processor on test-size li, as every
// campaign trial does; no cycle runs. Reported, not gated.
void
BM_ProcessorSetup(benchmark::State &state, bool slipstream)
{
    const Program &program =
        ProgramCache::global().get("li", WorkloadSize::Test).program;
    const CoreParams ssParams = ss64x4Params();
    const SlipstreamParams cmpParams = cmp2x64x4Params();
    for (auto _ : state) {
        if (slipstream) {
            SlipstreamProcessor proc(program, cmpParams);
            benchmark::DoNotOptimize(&proc);
        } else {
            SSProcessor proc(program, ssParams);
            benchmark::DoNotOptimize(&proc);
        }
    }
}
BENCHMARK_CAPTURE(BM_ProcessorSetup, ss, false);
BENCHMARK_CAPTURE(BM_ProcessorSetup, cmp, true);

// Same-page accesses — the single-lookup memcpy fast path.
void
BM_MemorySamePageAccess(benchmark::State &state)
{
    Memory mem;
    mem.write(0x1000, 8, 1);
    Addr a = 0x1000;
    for (auto _ : state) {
        mem.write(a, 8, a);
        benchmark::DoNotOptimize(mem.read(a, 8));
        a = 0x1000 + ((a + 8) & 0xff8);
    }
}
BENCHMARK(BM_MemorySamePageAccess);

// Page-straddling accesses — the per-byte fallback path.
void
BM_MemoryPageCrossAccess(benchmark::State &state)
{
    Memory mem;
    const Addr edge = 2 * Memory::kPageBytes - 4;
    mem.write(edge, 8, 1);
    for (auto _ : state) {
        mem.write(edge, 8, edge);
        benchmark::DoNotOptimize(mem.read(edge, 8));
    }
}
BENCHMARK(BM_MemoryPageCrossAccess);

void
BM_MemoryReadBlock(benchmark::State &state)
{
    Memory mem;
    std::vector<uint8_t> image(64 * 1024, 0xa5);
    mem.writeBlock(0x100000, image.data(), image.size());
    std::vector<uint8_t> out(image.size());
    for (auto _ : state) {
        mem.readBlock(0x100000, out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(out.size()));
}
BENCHMARK(BM_MemoryReadBlock);

} // namespace
