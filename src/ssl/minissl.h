/**
 * minissl — a miniature TLS-like library standing in for SGX-OpenSSL in
 * the confinement case study (paper §VI-A).
 *
 * It provides a record layer (AES-GCM protected frames), a handshake
 * (see handshake.h) and the SSL heartbeat extension. The heartbeat
 * handler deliberately re-implements the *missing bounds check* of
 * CVE-2014-0160 (HeartBleed): the attacker-controlled payload length is
 * trusted, so the response copies stale bytes out of the record buffer —
 * which the allocator recycles from previously freed blocks.
 *
 * All buffers live in the *enclave heap of whichever enclave hosts the
 * library* and are accessed through the validated memory path. Hosting
 * minissl in the same enclave as the application (monolithic SGX)
 * exposes application secrets to the overread; hosting it in the outer
 * enclave (nested) confines the overread to the outer heap, and the
 * inner enclave's secrets stay unreachable.
 */
#pragma once

#include <memory>

#include "crypto/gcm.h"
#include "sdk/runtime.h"

namespace nesgx::ssl {

/** Wire frame types. */
enum class FrameType : std::uint8_t {
    Data = 0x17,       ///< application record
    Heartbeat = 0x18,  ///< heartbeat request
};

/** Frame header: [type u8][length u32 LE]. */
constexpr std::size_t kFrameHeader = 5;

/** Fixed record-buffer size, as OpenSSL reuses large record buffers. */
constexpr std::uint64_t kRecordBufferSize = 4096;

/** Builds a wire frame around a payload. */
Bytes frame(FrameType type, ByteView payload);

/** Parses a frame header; returns false on malformed input. */
bool parseFrame(ByteView wire, FrameType& type, ByteView& payload);

/** Builds a heartbeat request with an attacker-chosen claimed length. */
Bytes makeHeartbeatRequest(std::uint16_t claimedLen, ByteView payload);

class MiniSsl {
  public:
    /** @param key session record key (from the handshake). */
    explicit MiniSsl(ByteView key);

    /**
     * Protects a plaintext as an outgoing data frame (software AES-GCM,
     * cycle-charged).
     */
    Result<Bytes> sslWrite(sdk::TrustedEnv& env, ByteView plaintext);

    /**
     * Opens an incoming data frame. The wire bytes are first staged into
     * a heap record buffer (allocated from the hosting enclave's heap,
     * hence subject to recycling), then verified and decrypted.
     */
    Result<Bytes> sslRead(sdk::TrustedEnv& env, ByteView wire);

    /**
     * Heartbeat processing — the vulnerable path. The response echoes
     * `claimedLen` bytes starting at the payload offset of the record
     * buffer, with no check against the actual received length
     * (CVE-2014-0160). Whatever the recycled buffer held beyond the
     * request leaks into the response.
     */
    Result<Bytes> handleHeartbeat(sdk::TrustedEnv& env, ByteView wire);

    std::uint64_t recordsProcessed() const { return recordsProcessed_; }

  private:
    /** Stages wire bytes into a (recycled) heap record buffer. */
    Result<hw::Vaddr> stageRecord(sdk::TrustedEnv& env, ByteView wire);

    crypto::AesGcm gcm_;
    std::uint64_t sendSeq_ = 0;
    std::uint64_t recvSeq_ = 0;
    std::uint64_t recordsProcessed_ = 0;
};

}  // namespace nesgx::ssl
