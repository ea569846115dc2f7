/**
 * @file
 * Async-signal-safe crash reporting for sandboxed trial workers.
 *
 * A worker process that takes SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT
 * cannot run normal reporting code — the heap, iostreams, and most of
 * libc are off-limits inside a signal handler. What it *can* do is
 * write(2) a small fixed-size record to a pipe the supervisor holds
 * the read end of (the classic self-pipe trick), then re-raise the
 * signal with default disposition so the kernel's exit status still
 * tells the truth.
 *
 * The record carries the signal number, the faulting address (when
 * the kernel provides one), and the trial id + phase the worker
 * last announced via setCrashContext() — so the supervisor can say
 * "trial 17 died on SIGSEGV at 0xdeadbeef while in phase `run`"
 * even though the worker's own stack is gone.
 *
 * Everything the handler touches is a lock-free atomic or a stack
 * buffer; the handler performs exactly one write(2) and re-raises.
 */

#ifndef SLIPSTREAM_COMMON_CRASH_REPORT_HH
#define SLIPSTREAM_COMMON_CRASH_REPORT_HH

#include <atomic>
#include <cstdint>

namespace slip
{

/**
 * Where a worker was in its trial lifecycle, kept in a shared-memory
 * progress word (heartbeat) and stamped into crash notes. The values
 * are wire-stable: they cross process boundaries.
 */
enum class TrialPhase : uint8_t
{
    Idle,     // between trials
    Receive,  // reading a job request off the pipe
    Setup,    // pre-run preparation (program lookup, injector arming)
    Run,      // inside the simulation proper
    Report,   // serializing / shipping the result back
};

inline constexpr unsigned kNumTrialPhases = 5;

/** The greatest TrialPhase (the wire decoder's range check). */
constexpr TrialPhase
lastEnumerator(TrialPhase)
{
    return TrialPhase::Report;
}

/** "idle", "receive", "setup", "run", "report". */
const char *trialPhaseName(TrialPhase phase);

/**
 * The fixed-size record the signal handler writes. POD, no pointers,
 * byte-copied through a pipe — both ends are the same binary (fork,
 * no exec), so no portability concerns beyond a sanity magic.
 */
struct CrashNote
{
    static constexpr uint32_t kMagic = 0x43525348; // "CRSH"

    uint32_t magic = kMagic;
    int32_t signal = 0;
    uint64_t faultAddr = 0; // si_addr for SEGV/BUS/ILL/FPE, else 0
    uint64_t trialId = 0;
    uint8_t phase = 0; // TrialPhase
    uint8_t pad[7] = {};
};

static_assert(sizeof(CrashNote) == 32, "CrashNote must stay fixed-size");

/**
 * Install write(2)-only handlers for SIGSEGV, SIGBUS, SIGILL, SIGFPE,
 * and SIGABRT that dump a CrashNote to `reportFd` and re-raise.
 * Call in the worker child after fork; `reportFd` must outlive the
 * process. Passing -1 uninstalls (restores default dispositions).
 */
void installCrashHandler(int reportFd);

/**
 * Announce the trial the worker is about to touch; the handler reads
 * these with relaxed atomics. Async-signal-safe by construction.
 * When a heartbeat slot is attached, the same announcement lands there
 * as a packed progress word.
 */
void setCrashContext(uint64_t trialId, TrialPhase phase);

/**
 * Attach a shared-memory progress word (typically one slot of the
 * worker pool's mmap'd heartbeat page) that every setCrashContext()
 * call also updates with packProgress(). The supervisor reads it after
 * a death too sudden for the crash handler (SIGKILL, OOM kill) — the
 * word survives the worker. Pass nullptr to detach.
 */
void setHeartbeatSlot(std::atomic<uint64_t> *word);

/** (trialId << 8) | phase — the heartbeat encoding. */
inline constexpr uint64_t
packProgress(uint64_t trialId, TrialPhase phase)
{
    return (trialId << 8) | uint64_t(phase);
}

/**
 * Drain one CrashNote from the (non-blocking or already-EOF) read end
 * of a crash pipe. Returns false when no complete, valid note is
 * available — a worker that died without its handler firing (SIGKILL,
 * plain _exit) leaves the pipe empty, which is itself information.
 */
bool readCrashNote(int fd, CrashNote &note);

/**
 * "SIGSEGV", "SIGBUS", ... for the signals workers die from; falls
 * back to "signal <n>" spelled into `scratch` (caller-owned storage,
 * >= 32 bytes) for anything unnamed.
 */
const char *crashSignalName(int signal, char *scratch, unsigned len);

} // namespace slip

#endif // SLIPSTREAM_COMMON_CRASH_REPORT_HH
