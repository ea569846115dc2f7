#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>
#include <unistd.h>

#include "common/logging.hh"
#include "fuzz/fuzzer.hh"
#include "harness/sim_runner.hh"
#include "harness/wire.hh"
#include "serve/serve_proto.hh"

namespace slip::wire
{
namespace
{

TEST(WireEncoder, IntegersRoundTrip)
{
    Encoder enc;
    enc.putU8(0xab);
    enc.putU16(0xbeef);
    enc.putU32(0xdeadbeefu);
    enc.putU64(0x0123456789abcdefull);
    enc.putI32(-42);
    enc.putBool(true);
    enc.putBool(false);

    Decoder dec(enc.bytes());
    EXPECT_EQ(dec.getU8(), 0xab);
    EXPECT_EQ(dec.getU16(), 0xbeef);
    EXPECT_EQ(dec.getU32(), 0xdeadbeefu);
    EXPECT_EQ(dec.getU64(), 0x0123456789abcdefull);
    EXPECT_EQ(dec.getI32(), -42);
    EXPECT_TRUE(dec.getBool());
    EXPECT_FALSE(dec.getBool());
    EXPECT_TRUE(dec.atEnd());
}

TEST(WireEncoder, IntegersAreLittleEndian)
{
    // The layout is part of the protocol (version 1), not an
    // implementation detail: a future mixed-endian supervisor/worker
    // pair must agree on it.
    Encoder enc;
    enc.putU32(0x04030201u);
    const std::string &b = enc.bytes();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(uint8_t(b[0]), 1);
    EXPECT_EQ(uint8_t(b[1]), 2);
    EXPECT_EQ(uint8_t(b[2]), 3);
    EXPECT_EQ(uint8_t(b[3]), 4);
}

TEST(WireEncoder, DoublesRoundTripExactly)
{
    // Bit-pattern transport: determinism across isolation modes
    // depends on doubles surviving without a decimal detour.
    const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e-308, 6.02e23,
                             -123.456789012345678};
    Encoder enc;
    for (double v : values)
        enc.putDouble(v);
    enc.putDouble(std::nan(""));

    Decoder dec(enc.bytes());
    for (double v : values) {
        const double got = dec.getDouble();
        uint64_t a = 0, b = 0;
        std::memcpy(&a, &v, sizeof(a));
        std::memcpy(&b, &got, sizeof(b));
        EXPECT_EQ(a, b);
    }
    EXPECT_TRUE(std::isnan(dec.getDouble()));
}

TEST(WireEncoder, StringsRoundTripIncludingNuls)
{
    Encoder enc;
    enc.putString("");
    enc.putString(std::string("a\0b", 3));
    enc.putString("plain");

    Decoder dec(enc.bytes());
    EXPECT_EQ(dec.getString(), "");
    EXPECT_EQ(dec.getString(), std::string("a\0b", 3));
    EXPECT_EQ(dec.getString(), "plain");
    EXPECT_TRUE(dec.atEnd());
}

TEST(WireDecoder, TruncationIsFatalNotSilent)
{
    Encoder enc;
    enc.putU64(7);
    const std::string whole = enc.bytes();

    Decoder short1(whole);
    EXPECT_EQ(short1.getU64(), 7u);
    EXPECT_THROW(short1.getU8(), FatalError); // past the end

    const std::string torn = whole.substr(0, 3);
    Decoder short2(torn);
    EXPECT_THROW(short2.getU64(), FatalError);
}

TEST(WireDecoder, TruncatedStringIsFatal)
{
    Encoder enc;
    enc.putString("hello");
    // Length prefix says 5, but only 2 payload bytes survive.
    const std::string torn = enc.bytes().substr(0, 6);
    Decoder dec(torn);
    EXPECT_THROW(dec.getString(), FatalError);
}

/** pipe(2) fixture for frame-level tests. */
class WireFrame : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_EQ(pipe(fds), 0);
    }

    void
    TearDown() override
    {
        if (fds[0] >= 0)
            close(fds[0]);
        if (fds[1] >= 0)
            close(fds[1]);
    }

    void
    closeWrite()
    {
        close(fds[1]);
        fds[1] = -1;
    }

    int fds[2] = {-1, -1};
};

TEST_F(WireFrame, RoundTripOverPipe)
{
    Encoder enc;
    enc.putU64(31337);
    enc.putString("payload");
    ASSERT_TRUE(writeFrame(fds[1], MsgType::JobResult, enc.bytes()));

    MsgType type{};
    std::string payload;
    ASSERT_EQ(readFrame(fds[0], type, payload), ReadResult::Ok);
    EXPECT_EQ(type, MsgType::JobResult);
    Decoder dec(payload);
    EXPECT_EQ(dec.getU64(), 31337u);
    EXPECT_EQ(dec.getString(), "payload");
}

TEST_F(WireFrame, EmptyPayloadFrame)
{
    ASSERT_TRUE(writeFrame(fds[1], MsgType::Shutdown, ""));
    MsgType type{};
    std::string payload;
    ASSERT_EQ(readFrame(fds[0], type, payload), ReadResult::Ok);
    EXPECT_EQ(type, MsgType::Shutdown);
    EXPECT_TRUE(payload.empty());
}

TEST_F(WireFrame, CleanCloseBetweenFramesIsEof)
{
    closeWrite();
    MsgType type{};
    std::string payload;
    EXPECT_EQ(readFrame(fds[0], type, payload), ReadResult::Eof);
}

TEST_F(WireFrame, CloseMidFrameIsError)
{
    // A valid header promising 100 payload bytes, then death.
    Encoder enc;
    enc.putString(std::string(100, 'x'));
    std::string frame;
    {
        // Build a full frame in memory by writing to a scratch pipe.
        int scratch[2];
        ASSERT_EQ(pipe(scratch), 0);
        ASSERT_TRUE(
            writeFrame(scratch[1], MsgType::JobResult, enc.bytes()));
        char buf[4096];
        const ssize_t n = read(scratch[0], buf, sizeof(buf));
        ASSERT_GT(n, 12);
        frame.assign(buf, size_t(n));
        close(scratch[0]);
        close(scratch[1]);
    }
    // Ship the header plus half the payload, then hang up.
    ASSERT_EQ(write(fds[1], frame.data(), frame.size() / 2),
              ssize_t(frame.size() / 2));
    closeWrite();

    MsgType type{};
    std::string payload;
    setLogQuiet(true);
    EXPECT_EQ(readFrame(fds[0], type, payload), ReadResult::Error);
    setLogQuiet(false);
}

TEST_F(WireFrame, BadMagicIsError)
{
    // 12 garbage header bytes: enough for a full (wrong) header.
    const char junk[12] = {'x', 'x', 'x', 'x', 'x', 'x',
                           'x', 'x', 'x', 'x', 'x', 'x'};
    ASSERT_EQ(write(fds[1], junk, sizeof(junk)), ssize_t(sizeof(junk)));
    MsgType type{};
    std::string payload;
    setLogQuiet(true);
    EXPECT_EQ(readFrame(fds[0], type, payload), ReadResult::Error);
    setLogQuiet(false);
}

TEST_F(WireFrame, AppendedFramesMatchSuccessiveWrites)
{
    const std::vector<std::pair<MsgType, std::string>> frames = {
        {MsgType::TrialResult, "first line"},
        {MsgType::Shutdown, ""},
        {MsgType::TrialResult, std::string(300, 'x')},
    };
    std::string burst;
    for (const auto &[type, payload] : frames) {
        ASSERT_TRUE(writeFrame(fds[1], type, payload));
        appendFrame(burst, type, payload);
    }
    std::string successive(burst.size(), '\0');
    size_t have = 0;
    while (have < successive.size()) {
        const ssize_t n = read(fds[0], successive.data() + have,
                               successive.size() - have);
        ASSERT_GT(n, 0);
        have += size_t(n);
    }
    EXPECT_EQ(burst, successive);

    // Both streams, back to back, parse as the same frames in order.
    for (const auto &[type, payload] : frames)
        ASSERT_TRUE(writeFrame(fds[1], type, payload));
    ASSERT_TRUE(writeFrames(fds[1], burst));
    closeWrite();
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto &[type, payload] : frames) {
            MsgType got{};
            std::string body;
            ASSERT_EQ(readFrame(fds[0], got, body), ReadResult::Ok);
            EXPECT_EQ(got, type);
            EXPECT_EQ(body, payload);
        }
    }
    MsgType got{};
    std::string body;
    EXPECT_EQ(readFrame(fds[0], got, body), ReadResult::Eof);
}

RunMetrics
sampleMetrics()
{
    RunMetrics m;
    m.model = "CMP(2x64x4)";
    m.cycles = 123456;
    m.retired = 98765;
    m.ipc = 1.75;
    m.branchMispPer1000 = 3.25;
    m.outputCorrect = true;
    m.outputBytes = 4242;
    m.removedFraction = 0.375;
    m.removedByReason = {{"branch", 17}, {"store", 3}};
    m.removedByReasonMask[0] = 11;
    m.removedByReasonMask[5] = 7;
    m.irMispPer1000 = 0.5;
    m.avgIRPenalty = 12.5;
    m.recoveries = 9;
    m.cancelled = false;
    m.hung = false;
    m.watchdogTrips = 2;
    m.degraded = true;
    m.degradedAtCycle = 555;
    m.rOnlyRetired = 333;
    m.detectBackend = "replay";
    m.detectChecked = 1001;
    m.detectMismatches = 4;
    m.detectExternal = 2;
    m.detectReplays = 6;
    m.detectReplayedInsts = 1536;
    m.detectOverheadCycles = 384;
    m.faultOutcome.planned = 2;
    m.faultOutcome.numInjected = 2;
    m.faultOutcome.numDetected = 1;
    FaultRecord rec;
    rec.plan.target = FaultTarget::ARegister;
    rec.plan.dynIndex = 77;
    rec.plan.bit = 13;
    rec.plan.reg = 5;
    rec.fired = true;
    rec.injected = true;
    rec.targetWasRedundant = true;
    rec.detected = true;
    rec.pc = 0x2000;
    rec.injectCycle = 100;
    rec.detectCycle = 250;
    m.faultOutcome.records.push_back(rec);
    return m;
}

void
expectMetricsEqual(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.branchMispPer1000, b.branchMispPer1000);
    EXPECT_EQ(a.outputCorrect, b.outputCorrect);
    EXPECT_EQ(a.outputBytes, b.outputBytes);
    EXPECT_EQ(a.removedFraction, b.removedFraction);
    EXPECT_EQ(a.removedByReason, b.removedByReason);
    EXPECT_EQ(a.removedByReasonMask, b.removedByReasonMask);
    EXPECT_EQ(a.irMispPer1000, b.irMispPer1000);
    EXPECT_EQ(a.avgIRPenalty, b.avgIRPenalty);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.cancelled, b.cancelled);
    EXPECT_EQ(a.hung, b.hung);
    EXPECT_EQ(a.watchdogTrips, b.watchdogTrips);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.degradedAtCycle, b.degradedAtCycle);
    EXPECT_EQ(a.rOnlyRetired, b.rOnlyRetired);
    EXPECT_EQ(a.detectBackend, b.detectBackend);
    EXPECT_EQ(a.detectChecked, b.detectChecked);
    EXPECT_EQ(a.detectMismatches, b.detectMismatches);
    EXPECT_EQ(a.detectExternal, b.detectExternal);
    EXPECT_EQ(a.detectReplays, b.detectReplays);
    EXPECT_EQ(a.detectReplayedInsts, b.detectReplayedInsts);
    EXPECT_EQ(a.detectOverheadCycles, b.detectOverheadCycles);
    EXPECT_EQ(a.faultOutcome.planned, b.faultOutcome.planned);
    EXPECT_EQ(a.faultOutcome.numInjected, b.faultOutcome.numInjected);
    EXPECT_EQ(a.faultOutcome.numDetected, b.faultOutcome.numDetected);
    ASSERT_EQ(a.faultOutcome.records.size(),
              b.faultOutcome.records.size());
    for (size_t i = 0; i < a.faultOutcome.records.size(); ++i) {
        const FaultRecord &ra = a.faultOutcome.records[i];
        const FaultRecord &rb = b.faultOutcome.records[i];
        EXPECT_EQ(ra.plan.target, rb.plan.target);
        EXPECT_EQ(ra.plan.dynIndex, rb.plan.dynIndex);
        EXPECT_EQ(ra.plan.bit, rb.plan.bit);
        EXPECT_EQ(ra.plan.reg, rb.plan.reg);
        EXPECT_EQ(ra.fired, rb.fired);
        EXPECT_EQ(ra.injected, rb.injected);
        EXPECT_EQ(ra.targetWasRedundant, rb.targetWasRedundant);
        EXPECT_EQ(ra.detected, rb.detected);
        EXPECT_EQ(ra.pc, rb.pc);
        EXPECT_EQ(ra.injectCycle, rb.injectCycle);
        EXPECT_EQ(ra.detectCycle, rb.detectCycle);
    }
}

TEST(WireCodec, RunMetricsRoundTrip)
{
    const RunMetrics m = sampleMetrics();
    Encoder enc;
    enc.put(m);
    Decoder dec(enc.bytes());
    RunMetrics back;
    dec.get(back);
    EXPECT_TRUE(dec.atEnd());
    expectMetricsEqual(m, back);
}

/** A record as its wire bytes: what a job of the runner returns. */
std::string
encoded(const RunMetrics &m)
{
    Encoder enc;
    enc.put(m);
    return enc.bytes();
}

/**
 * A job's outcome as it crosses back from a forked worker: how the
 * job ended, with its record still wire bytes.
 */
TEST(WireCodec, EncodedOutcomeRoundTrip)
{
    Outcome<std::string> o;
    o.status = JobEnd::Status::Error;
    o.record = encoded(sampleMetrics());
    o.errorKind = ErrorKind::Resource;
    o.errorMessage = "allocation failed";
    o.attempts = 3;

    Encoder enc;
    enc.put(o);
    Decoder dec(enc.bytes());
    Outcome<std::string> back;
    dec.get(back);
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(back.status, JobEnd::Status::Error);
    EXPECT_EQ(back.errorKind, ErrorKind::Resource);
    EXPECT_EQ(back.errorMessage, "allocation failed");
    EXPECT_EQ(back.attempts, 3u);
    // The exception_ptr never crosses the wire.
    EXPECT_EQ(back.exception, nullptr);
    Decoder records(back.record);
    RunMetrics metrics;
    records.get(metrics);
    EXPECT_TRUE(records.atEnd());
    expectMetricsEqual(sampleMetrics(), metrics);
}

TEST(WireCodec, CrashTriageFieldsRoundTrip)
{
    Outcome<std::string> o;
    o.status = JobEnd::Status::Crashed;
    o.termSignal = 11;
    o.termExitCode = 0;
    o.crashAddr = 0xdeadbeef;
    o.crashPhase = TrialPhase::Run;
    o.poisoned = true;
    o.errorMessage = "worker killed by SIGSEGV";

    Encoder enc;
    enc.put(o);
    Decoder dec(enc.bytes());
    Outcome<std::string> back;
    dec.get(back);
    EXPECT_EQ(back.status, JobEnd::Status::Crashed);
    EXPECT_EQ(back.termSignal, 11);
    EXPECT_EQ(back.crashAddr, 0xdeadbeefu);
    EXPECT_EQ(back.crashPhase, TrialPhase::Run);
    EXPECT_TRUE(back.poisoned);
}

/** One value's payload as lowercase hex. */
template <typename T>
std::string
payloadHex(const T &value)
{
    Encoder enc;
    enc.put(value);
    std::string hex;
    for (unsigned char c : enc.bytes()) {
        hex += "0123456789abcdef"[c >> 4];
        hex += "0123456789abcdef"[c & 15];
    }
    return hex;
}

/**
 * One fixed value of each record that crosses a pipe or socket, pinned
 * to its payload bytes. The hex was captured from the hand-written
 * codecs the field lists replaced: reordering or retyping a field in a
 * list changes the protocol and must fail here, not in a peer.
 */
TEST(WireCodec, PayloadBytesMatchTheHandWrittenCodecs)
{
    const RunMetrics m = sampleMetrics();
    const FaultRecord &rec = m.faultOutcome.records[0];
    EXPECT_EQ(payloadHex(rec.plan), "054d000000000000000d00000005");
    EXPECT_EQ(payloadHex(rec),
              "054d000000000000000d0000000501010101002000000000000064000000"
              "00000000fa00000000000000");
    EXPECT_EQ(payloadHex(m.faultOutcome),
              "02000000020000000100000001000000054d000000000000000d00000005"
              "0101010100200000000000006400000000000000fa00000000000000");
    EXPECT_EQ(payloadHex(m),
              "0b000000434d50283278363478342940e2010000000000cd810100000000"
              "00000000000000fc3f0000000000000a4001921000000000000000000000"
              "0000d83f02000000060000006272616e6368110000000000000005000000"
              "73746f72650300000000000000100000000b000000000000000000000000"
              "000000000000000000000000000000000000000000000000000000070000"
              "000000000000000000000000000000000000000000000000000000000000"
              "000000000000000000000000000000000000000000000000000000000000"
              "000000000000000000000000000000000000000000000000000000000000"
              "00e03f00000000000029400900000000000000000002000000012b020000"
              "000000004d01000000000000060000007265706c6179e903000000000000"
              "040000000000000002000000000000000600000000000000000600000000"
              "0000800100000000000002000000020000000100000001000000054d0000"
              "00000000000d000000050101010100200000000000006400000000000000"
              "fa00000000000000");

    // The job envelope: the record crosses as length-prefixed wire
    // bytes between the status and the error kind.
    Outcome<std::string> o;
    o.status = JobEnd::Status::Error;
    o.record = encoded(m);
    o.errorKind = ErrorKind::Resource;
    o.errorMessage = "allocation failed";
    o.termSignal = 11;
    o.termExitCode = -3;
    o.crashAddr = 0xdeadbeef;
    o.crashPhase = TrialPhase::Run;
    o.poisoned = true;
    o.attempts = 3;
    EXPECT_EQ(payloadHex(o),
              "018e0100000b000000434d50283278363478342940e2010000000000cd81"
              "010000000000000000000000fc3f0000000000000a400192100000000000"
              "00000000000000d83f02000000060000006272616e636811000000000000"
              "000500000073746f72650300000000000000100000000b00000000000000"
              "000000000000000000000000000000000000000000000000000000000000"
              "000007000000000000000000000000000000000000000000000000000000"
              "000000000000000000000000000000000000000000000000000000000000"
              "000000000000000000000000000000000000000000000000000000000000"
              "000000000000e03f00000000000029400900000000000000000002000000"
              "012b020000000000004d01000000000000060000007265706c6179e90300"
              "000000000004000000000000000200000000000000060000000000000000"
              "060000000000008001000000000000020000000200000001000000010000"
              "00054d000000000000000d00000005010101010020000000000000640000"
              "0000000000fa000000000000000211000000616c6c6f636174696f6e2066"
              "61696c65640b000000fdffffffefbeadde00000000030103000000");

    serve::BatchRequest b;
    b.kind = serve::BatchKind::Bench;
    b.id = 42;
    b.name = "pin";
    b.workloads = {"compress", "li"};
    b.size = WorkloadSize::Small;
    b.trialsPerWorkload = 5;
    b.minFaultsPerTrial = 2;
    b.maxFaultsPerTrial = 4;
    b.seed = 99;
    b.reliableMode = true;
    b.targets = {FaultTarget::AStream, FaultTarget::MemoryCell};
    b.detect.kind = DetectBackendKind::Replay;
    b.seedBegin = 3;
    b.seedEnd = 9;
    EXPECT_EQ(payloadHex(b.detect), "01");
    EXPECT_EQ(payloadHex(b),
              "022a000000000000000300000070696e0200000008000000636f6d707265"
              "7373020000006c6901050000000200000004000000630000000000000001"
              "0200000000060103000000000000000900000000000000");

    const serve::TrialResultMsg result{7, 3, true, "{\"trial\":3}"};
    EXPECT_EQ(payloadHex(result),
              "07000000000000000300000000000000010b0000007b22747269616c223a"
              "337d");

    serve::BatchDoneMsg d;
    d.batchId = 7;
    d.status = serve::BatchStatus::Cancelled;
    d.completed = 4;
    d.revoked = 2;
    d.cacheHits = 1;
    d.cacheMisses = 3;
    d.error = "cancelled by client";
    EXPECT_EQ(payloadHex(d),
              "070000000000000001040000000000000002000000000000000100000000"
              "00000003000000000000001300000063616e63656c6c656420627920636c"
              "69656e74");

    const serve::ServeStats stats{1, 2, 3, 4, 5, 6, 7, 8, 9, true};
    EXPECT_EQ(payloadHex(stats),
              "010000000000000002000000000000000300000000000000040000000000"
              "000005000000000000000600000000000000070000000000000008000000"
              "00000000090000000000000001");
}

TEST(WireCodec, OutOfRangeEnumByteNamesTheField)
{
    Encoder enc;
    enc.put(sampleMetrics().faultOutcome.records[0].plan);
    std::string bytes = enc.bytes();
    bytes[0] = char(unsigned(lastEnumerator(FaultTarget{})) + 1);
    Decoder dec(bytes);
    FaultPlan plan;
    setLogQuiet(true);
    try {
        dec.get(plan);
        ADD_FAILURE() << "decoded a fault target that does not exist";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("fault target byte 8"),
                  std::string::npos)
            << e.what();
    }
    setLogQuiet(false);
}

TEST(WireCodec, ArrayArityMismatchIsFatal)
{
    const RunMetrics m = sampleMetrics();
    Encoder enc;
    enc.put(m);
    std::string bytes = enc.bytes();
    // The mask array's count follows the removed-by-reason map: a
    // peer built with one mask fewer must be refused, not misread.
    Encoder reasons;
    reasons.put(m.removedByReason);
    const size_t countAt =
        bytes.find(reasons.bytes()) + reasons.bytes().size();
    ASSERT_EQ(uint8_t(bytes[countAt]), m.removedByReasonMask.size());
    --bytes[countAt];
    Decoder dec(bytes);
    RunMetrics back;
    setLogQuiet(true);
    EXPECT_THROW(dec.get(back), FatalError);
    setLogQuiet(false);
}

TEST(WireCodec, FuzzCaseRoundTrip)
{
    fuzz::FuzzCase c;
    c.seed = 1234;
    c.diverged = true;
    c.report = "diverged at pc 0x40";
    c.bundlePath = "results/fuzz/seed_1234";
    c.error = "";
    Encoder enc;
    enc.put(c);
    Decoder dec(enc.bytes());
    fuzz::FuzzCase back;
    dec.get(back);
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.diverged, c.diverged);
    EXPECT_EQ(back.report, c.report);
    EXPECT_EQ(back.bundlePath, c.bundlePath);
    EXPECT_EQ(back.error, c.error);
}

} // namespace
} // namespace slip::wire
