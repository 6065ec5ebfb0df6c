#include "ssl/minissl.h"

#include <cstring>

namespace nesgx::ssl {

Bytes
frame(FrameType type, ByteView payload)
{
    Bytes out(kFrameHeader + payload.size());
    out[0] = std::uint8_t(type);
    storeLe32(out.data() + 1, std::uint32_t(payload.size()));
    std::memcpy(out.data() + kFrameHeader, payload.data(), payload.size());
    return out;
}

bool
parseFrame(ByteView wire, FrameType& type, ByteView& payload)
{
    if (wire.size() < kFrameHeader) return false;
    std::uint32_t len = loadLe32(wire.data() + 1);
    if (wire.size() < kFrameHeader + len) return false;
    type = FrameType(wire[0]);
    payload = ByteView(wire.data() + kFrameHeader, len);
    return true;
}

Bytes
makeHeartbeatRequest(std::uint16_t claimedLen, ByteView payload)
{
    // Heartbeat body: [claimed length u16 LE][payload...].
    Bytes body(2 + payload.size());
    body[0] = std::uint8_t(claimedLen);
    body[1] = std::uint8_t(claimedLen >> 8);
    std::memcpy(body.data() + 2, payload.data(), payload.size());
    return frame(FrameType::Heartbeat, body);
}

MiniSsl::MiniSsl(ByteView key) : gcm_(key) {}

Result<hw::Vaddr>
MiniSsl::stageRecord(sdk::TrustedEnv& env, ByteView wire)
{
    // OpenSSL-style: records are staged into a heap buffer of at least
    // the default record-buffer size. The allocator recycles freed
    // blocks *without scrubbing*, so bytes beyond wire.size() are stale
    // heap contents.
    hw::Vaddr buf = env.alloc(
        std::max<std::uint64_t>(kRecordBufferSize, wire.size()));
    if (buf == 0) return Err::OutOfMemory;
    Status st = env.writeBytes(buf, wire);
    if (!st) {
        env.free(buf);
        return st;
    }
    return buf;
}

Result<Bytes>
MiniSsl::sslWrite(sdk::TrustedEnv& env, ByteView plaintext)
{
    Bytes iv(crypto::kGcmIvSize, 0);
    storeLe64(iv.data(), sendSeq_);
    Bytes aad(8);
    storeLe64(aad.data(), sendSeq_);
    ++sendSeq_;

    // Stage the outgoing record through the heap like a real record layer.
    auto buf = stageRecord(env, plaintext);
    if (!buf) return buf.status();

    Bytes sealed = gcm_.seal(iv, aad, plaintext);
    env.chargeGcm(plaintext.size());
    env.free(buf.value());
    ++recordsProcessed_;
    return frame(FrameType::Data, sealed);
}

Result<Bytes>
MiniSsl::sslRead(sdk::TrustedEnv& env, ByteView wire)
{
    FrameType type;
    ByteView payload;
    if (!parseFrame(wire, type, payload) || type != FrameType::Data) {
        return Err::BadCallBuffer;
    }

    auto buf = stageRecord(env, payload);
    if (!buf) return buf.status();
    auto staged = env.readBytes(buf.value(), payload.size());
    if (!staged) {
        env.free(buf.value());
        return staged.status();
    }

    Bytes iv(crypto::kGcmIvSize, 0);
    storeLe64(iv.data(), recvSeq_);
    Bytes aad(8);
    storeLe64(aad.data(), recvSeq_);
    auto plain = gcm_.open(iv, aad, staged.value());
    env.chargeGcm(payload.size());
    env.free(buf.value());
    if (!plain) return plain.status();
    ++recvSeq_;
    ++recordsProcessed_;
    return plain;
}

Result<Bytes>
MiniSsl::handleHeartbeat(sdk::TrustedEnv& env, ByteView wire)
{
    FrameType type;
    ByteView payload;
    if (!parseFrame(wire, type, payload) || type != FrameType::Heartbeat ||
        payload.size() < 2) {
        return Err::BadCallBuffer;
    }

    auto buf = stageRecord(env, payload);
    if (!buf) return buf.status();

    // Read the *claimed* payload length from the attacker's message.
    auto lenBytes = env.readBytes(buf.value(), 2);
    if (!lenBytes) {
        env.free(buf.value());
        return lenBytes.status();
    }
    std::uint16_t claimed =
        std::uint16_t(lenBytes.value()[0] | (lenBytes.value()[1] << 8));

    // VULNERABLE (CVE-2014-0160): no comparison of `claimed` against the
    // actual received length. The response copies `claimed` bytes from
    // the record buffer, exposing stale recycled-heap contents.
    auto echoed = env.readBytes(buf.value() + 2, claimed);
    env.free(buf.value());
    if (!echoed) return echoed.status();

    return frame(FrameType::Heartbeat, echoed.value());
}

}  // namespace nesgx::ssl
