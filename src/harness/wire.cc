#include "harness/wire.hh"

#include <cstring>

#include "common/fd_io.hh"
#include "common/logging.hh"

namespace slip::wire
{

// ---------------------------------------------------------------------
// Encoder.
// ---------------------------------------------------------------------

void
Encoder::putU16(uint16_t v)
{
    putU8(uint8_t(v));
    putU8(uint8_t(v >> 8));
}

void
Encoder::putU32(uint32_t v)
{
    putU16(uint16_t(v));
    putU16(uint16_t(v >> 16));
}

void
Encoder::putU64(uint64_t v)
{
    putU32(uint32_t(v));
    putU32(uint32_t(v >> 32));
}

void
Encoder::putDouble(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Encoder::putString(const std::string &s)
{
    putU32(uint32_t(s.size()));
    buf_.append(s);
}

// ---------------------------------------------------------------------
// Decoder.
// ---------------------------------------------------------------------

void
Decoder::need(size_t n) const
{
    if (buf_.size() - pos_ < n)
        SLIP_FATAL("wire: truncated payload (need ", n,
                   " bytes at offset ", pos_, " of ", buf_.size(), ")");
}

uint8_t
Decoder::getU8()
{
    need(1);
    return uint8_t(buf_[pos_++]);
}

uint16_t
Decoder::getU16()
{
    const uint16_t lo = getU8();
    const uint16_t hi = getU8();
    return uint16_t(lo | (hi << 8));
}

uint32_t
Decoder::getU32()
{
    const uint32_t lo = getU16();
    const uint32_t hi = getU16();
    return lo | (hi << 16);
}

uint64_t
Decoder::getU64()
{
    const uint64_t lo = getU32();
    const uint64_t hi = getU32();
    return lo | (hi << 32);
}

double
Decoder::getDouble()
{
    const uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Decoder::getString()
{
    const uint32_t n = getU32();
    need(n);
    std::string s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
}

// ---------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------

namespace
{

struct FrameHeader
{
    uint32_t length; // payload bytes following the header
    uint32_t magic;
    uint16_t version;
    uint8_t type;
    uint8_t pad;
};

static_assert(sizeof(FrameHeader) == 12, "frame header is wire format");

// Frames carry one trial result at most; anything bigger than this is
// a corrupt length field, not a real message.
constexpr uint32_t kMaxFrame = 64u << 20;

void
appendFrameVersion(std::string &frames, MsgType type, uint16_t version,
                   const std::string &payload)
{
    FrameHeader hdr;
    hdr.length = uint32_t(payload.size());
    hdr.magic = kMagic;
    hdr.version = version;
    hdr.type = uint8_t(type);
    hdr.pad = 0;
    frames.append(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
    frames += payload;
}

} // namespace

bool
writeFrame(int fd, MsgType type, const std::string &payload)
{
    return writeFrameVersion(fd, type, kVersion, payload);
}

void
appendFrame(std::string &frames, MsgType type, const std::string &payload)
{
    appendFrameVersion(frames, type, kVersion, payload);
}

bool
writeFrames(int fd, const std::string &frames)
{
    return writeAll(fd, frames.data(), frames.size());
}

bool
writeFrameVersion(int fd, MsgType type, uint16_t version,
                  const std::string &payload)
{
    std::string frame;
    frame.reserve(sizeof(FrameHeader) + payload.size());
    appendFrameVersion(frame, type, version, payload);
    return writeFrames(fd, frame);
}

ReadResult
readFrame(int fd, MsgType &type, std::string &payload)
{
    FrameHeader hdr;
    const int got = readAll(fd, &hdr, sizeof(hdr));
    if (got == 0)
        return ReadResult::Eof;
    if (got < 0)
        return ReadResult::Error;
    if (hdr.magic != kMagic || hdr.version != kVersion ||
        hdr.length > kMaxFrame) {
        SLIP_WARN("wire: bad frame header (magic 0x", std::hex, hdr.magic,
                  std::dec, " version ", hdr.version, " length ",
                  hdr.length, ")");
        return ReadResult::Error;
    }
    payload.resize(hdr.length);
    if (hdr.length > 0 && readAll(fd, payload.data(), hdr.length) != 1)
        return ReadResult::Error;
    type = MsgType(hdr.type);
    return ReadResult::Ok;
}

ReadResult
readFrameInfo(int fd, FrameInfo &frame)
{
    FrameHeader hdr;
    const int got = readAll(fd, &hdr, sizeof(hdr));
    if (got == 0)
        return ReadResult::Eof;
    if (got < 0)
        return ReadResult::Error;
    // Version deliberately unchecked (the caller negotiates); a bad
    // magic or an insane length is still garbage, not a peer.
    if (hdr.magic != kMagic || hdr.length > kMaxFrame) {
        SLIP_WARN("wire: bad frame header (magic 0x", std::hex, hdr.magic,
                  std::dec, " length ", hdr.length, ")");
        return ReadResult::Error;
    }
    frame.payload.resize(hdr.length);
    if (hdr.length > 0 &&
        readAll(fd, frame.payload.data(), hdr.length) != 1)
        return ReadResult::Error;
    frame.type = MsgType(hdr.type);
    frame.version = hdr.version;
    return ReadResult::Ok;
}

} // namespace slip::wire
