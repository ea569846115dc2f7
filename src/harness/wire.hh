/**
 * @file
 * The versioned, length-prefixed frame protocol shared by the trial
 * supervisor / forked-worker pipes and the slipd campaign server's
 * client sockets.
 *
 * Framing: every message is
 *
 *     u32 payload length | u32 magic | u16 version | u8 type | payload
 *
 * read and written with plain read(2)/write(2) loops (EINTR-safe,
 * partial-I/O-safe). The magic and version are checked on every frame
 * — a supervisor never interprets bytes from a worker running a
 * different protocol revision; it fails loudly instead.
 *
 * Two readers exist for two trust models:
 *
 *  - readFrame(): strict — any version other than kVersion is an
 *    Error. The worker pipes use this everywhere, and the serve
 *    protocol uses it for every frame after the handshake.
 *  - readFrameInfo(): lenient on *version only* (magic and length are
 *    still enforced). Used exactly once per connection, for the
 *    Hello/HelloReject exchange, so a peer speaking a different
 *    protocol revision gets told "server speaks v2, you speak v1"
 *    instead of a silent close — version negotiation fails closed
 *    with a diagnosis, never open.
 *
 * Payloads are built with Encoder/Decoder: fixed-width little-endian
 * integers, bit-pattern doubles (exact round-trip — determinism
 * across isolation modes depends on it), and length-prefixed strings.
 * Decoder getters bounds-check and raise fatal() on truncation, so a
 * torn or corrupt payload is an error, never a silent misparse.
 *
 * Records are not coded by hand. Each names its fields once, in wire
 * order, in a static `fields(self, visit)` that calls visit(name,
 * member) per field; Encoder::put and Decoder::get walk it, and each
 * field's type picks its encoding: an enum is a u8 the decoder checks
 * against lastEnumerator() (the error names the field), bool and
 * uint8_t a u8, unsigned a u32, int an i32, uint64_t a u64, double
 * its bits, std::string a u32 length plus bytes, std::vector,
 * std::map and std::array a u32 count plus elements (an array's count
 * must be its arity), and a nested record its own list. The campaign
 * trial key walks the same lists, so a trial run in a worker process
 * reports byte-for-byte what it reports in-process.
 */

#ifndef SLIPSTREAM_HARNESS_WIRE_HH
#define SLIPSTREAM_HARNESS_WIRE_HH

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>

#include "common/logging.hh"

namespace slip::wire
{

inline constexpr uint32_t kMagic = 0x53504C57; // "WLPS" on the wire
inline constexpr uint16_t kVersion = 5; // v5: result lines carry "key"

/** Frame types the worker and serve protocols speak. */
enum class MsgType : uint8_t
{
    // Worker pipes (supervisor <-> forked worker).
    JobRequest = 1, // supervisor -> worker: {u64 job, u32 attempt}
    JobResult = 2,  // worker -> supervisor: {u64 job, bytes payload}
    Shutdown = 3,   // supervisor -> worker: drain and _exit(0)

    // Serve protocol (slipc <-> slipd). Types 16+ so a serve frame
    // misdelivered to a worker pipe reads as protocol confusion, not
    // as a job.
    Hello = 16,        // client -> server: {string client name}
    HelloAck = 17,     // server -> client: {u16 version, string server}
    HelloReject = 18,  // server -> client: {u16 server version,
                       //                    string reason}
    BatchRequest = 19, // client -> server: serve::BatchRequest codec
    TrialResult = 20,  // server -> client: one finished trial's JSONL
    BatchDone = 21,    // server -> client: batch summary + status
    CancelBatch = 22,  // client -> server: revoke undispatched trials
    StatsRequest = 23, // client -> server: {}
    StatsReply = 24,   // server -> client: serve::ServeStats codec
    DrainRequest = 25, // client -> server: drain + exit after reply
    DrainAck = 26,     // server -> client: drain began
};

/**
 * One frame as read leniently: the header's version rides along
 * instead of being enforced, so handshake code can diagnose a
 * revision mismatch in its error message. Magic and the length
 * sanity cap are still enforced — this is version-lenient, not
 * trust-everything.
 */
struct FrameInfo
{
    MsgType type = MsgType::Shutdown;
    uint16_t version = 0;
    std::string payload;
};

/** Append-only payload builder. */
class Encoder
{
  public:
    void putU8(uint8_t v) { buf_.push_back(char(v)); }
    void putU16(uint16_t v);
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    void putI32(int32_t v) { putU32(uint32_t(v)); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    /** Bit pattern, not decimal text: doubles round-trip exactly. */
    void putDouble(double v);
    void putString(const std::string &s);

    /** One value, encoded by its type (see the file comment). */
    template <typename T>
    void put(const T &v);

    const std::string &bytes() const { return buf_; }

  private:
    std::string buf_;
};

/** Bounds-checked payload reader; truncation raises fatal(). */
class Decoder
{
  public:
    explicit Decoder(const std::string &bytes) : buf_(bytes) {}

    uint8_t getU8();
    uint16_t getU16();
    uint32_t getU32();
    uint64_t getU64();
    int32_t getI32() { return int32_t(getU32()); }
    bool getBool() { return getU8() != 0; }
    double getDouble();
    std::string getString();

    /**
     * One value of `v`'s type into `v` (see the file comment); `name`
     * labels the error when the bytes name no value of that type.
     */
    template <typename T>
    void get(T &v, const char *name = "value");

    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    void need(size_t n) const;

    const std::string &buf_;
    size_t pos_ = 0;
};

/** Result of one frame read. */
enum class ReadResult : uint8_t
{
    Ok,
    Eof,   // clean close before any byte of a frame
    Error, // torn frame, bad magic/version, or an I/O error
};

/**
 * Write one frame, header and payload in a single write; returns
 * false on any write error (a dead peer — the caller treats it like a
 * crashed worker, not an exception). The caller is expected to have
 * SIGPIPE ignored.
 */
bool writeFrame(int fd, MsgType type, const std::string &payload);

/**
 * Append one frame, exactly the bytes writeFrame() would send, to
 * `frames`. A run of frames appended this way and sent with
 * writeFrames() reads back as the same frames in the same order.
 */
void appendFrame(std::string &frames, MsgType type,
                 const std::string &payload);

/** Write frames built by appendFrame() in one burst (as writeFrame). */
bool writeFrames(int fd, const std::string &frames);

/**
 * Read one frame (blocking). Eof only when the peer closed cleanly
 * between frames; a close mid-frame is Error.
 */
ReadResult readFrame(int fd, MsgType &type, std::string &payload);

/**
 * Write one frame stamping an explicit protocol version into the
 * header (tests and cross-version handshake probes; everything else
 * uses writeFrame, which stamps kVersion).
 */
bool writeFrameVersion(int fd, MsgType type, uint16_t version,
                       const std::string &payload);

/**
 * Read one frame accepting any header version (see FrameInfo).
 * Handshake use only; mid-stream frames go through readFrame.
 */
ReadResult readFrameInfo(int fd, FrameInfo &frame);

// ---------------------------------------------------------------------
// The field-list walkers.
// ---------------------------------------------------------------------

// How the walkers tell the containers apart.
template <typename T>
concept WireMap = requires { typename T::mapped_type; };
template <typename T>
concept WireVector = requires(T &v) { v.emplace_back(); };
template <typename T>
concept WireArray = requires { std::tuple_size<T>::value; };

template <typename T>
void
Encoder::put(const T &v)
{
    if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool> ||
                  std::is_same_v<T, uint8_t>) {
        putU8(uint8_t(v));
    } else if constexpr (std::is_same_v<T, unsigned>) {
        putU32(v);
    } else if constexpr (std::is_same_v<T, int>) {
        putI32(v);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
        putU64(v);
    } else if constexpr (std::is_same_v<T, double>) {
        putDouble(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        putString(v);
    } else if constexpr (WireVector<T> || WireArray<T>) {
        putU32(uint32_t(v.size()));
        for (const auto &e : v)
            put(e);
    } else if constexpr (WireMap<T>) {
        putU32(uint32_t(v.size()));
        for (const auto &[key, value] : v) {
            put(key);
            put(value);
        }
    } else {
        T::fields(v, [this](const char *, const auto &f) { put(f); });
    }
}

template <typename T>
void
Decoder::get(T &v, const char *name)
{
    if constexpr (std::is_enum_v<T>) {
        // A byte past the last enumerator names no value: refuse it,
        // naming the field, rather than carry an enumerator that does
        // not exist.
        const uint8_t b = getU8();
        constexpr unsigned last = unsigned(lastEnumerator(T{}));
        if (b > last)
            SLIP_FATAL("wire: ", name, " byte ", unsigned(b),
                       " is out of range (max ", last, ")");
        v = T(b);
    } else if constexpr (std::is_same_v<T, bool> ||
                         std::is_same_v<T, uint8_t>) {
        v = T(getU8());
    } else if constexpr (std::is_same_v<T, unsigned>) {
        v = getU32();
    } else if constexpr (std::is_same_v<T, int>) {
        v = getI32();
    } else if constexpr (std::is_same_v<T, uint64_t>) {
        v = getU64();
    } else if constexpr (std::is_same_v<T, double>) {
        v = getDouble();
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = getString();
    } else if constexpr (WireVector<T>) {
        const uint32_t n = getU32();
        v.clear();
        for (uint32_t i = 0; i < n; ++i)
            get(v.emplace_back(), name);
    } else if constexpr (WireArray<T>) {
        const uint32_t n = getU32();
        if (n != v.size())
            SLIP_FATAL("wire: ", name, " arity mismatch (", n, " vs ",
                       v.size(), ") — mixed-version peer?");
        for (auto &e : v)
            get(e, name);
    } else if constexpr (WireMap<T>) {
        const uint32_t n = getU32();
        v.clear();
        for (uint32_t i = 0; i < n; ++i) {
            typename T::key_type key{};
            typename T::mapped_type value{};
            get(key, name);
            get(value, name);
            v.emplace(std::move(key), std::move(value));
        }
    } else {
        T::fields(v, [this](const char *field, auto &f) { get(f, field); });
    }
}

} // namespace slip::wire

#endif // SLIPSTREAM_HARNESS_WIRE_HH
