/**
 * Inter-enclave communication channels (paper §VI-C, Fig. 11).
 *
 * OuterChannel — the nested-enclave design: a ring buffer living in the
 * *outer enclave's* heap. Peer inner enclaves read/write it directly
 * through the validated memory path; the MEE (cost model) protects the
 * bytes, no software crypto runs, and data that fits in the LLC never
 * even pays MEE cost ("the data exist in plaintext within the CPU
 * boundary").
 *
 * GcmChannel — the monolithic-SGX baseline: a ring buffer in *untrusted*
 * memory, every message sealed/opened with AES-GCM by enclave software,
 * exactly the "authenticated encryption mechanisms like AES-GCM" the
 * paper requires of enclave-to-enclave messaging today.
 *
 * Both channels move real bytes through the emulated memory system so
 * correctness (including GCM tag failures under tampering) is testable,
 * while the throughput experiments read the simulated clock.
 */
#pragma once

#include "crypto/gcm.h"
#include "sdk/runtime.h"

namespace nesgx::core {

/** Header layout: [head u64][tail u64] followed by the data ring. */
class OuterChannel {
  public:
    /**
     * Allocates a channel of `capacity` data bytes in the enclave heap of
     * `owner` (the shared outer enclave).
     */
    static Result<OuterChannel> create(sdk::LoadedEnclave& owner,
                                       std::uint64_t capacity);

    /**
     * Appends one length-prefixed message. Fails with OutOfMemory when the
     * ring lacks space (caller drains first). Access validation applies:
     * only the owner and its inner enclaves can call this successfully.
     */
    Status send(sdk::TrustedEnv& env, ByteView message) const;

    /** Pops the next message, or empty optional when the ring is empty. */
    Result<Bytes> recv(sdk::TrustedEnv& env) const;

    /** True when no message is pending. */
    Result<bool> empty(sdk::TrustedEnv& env) const;

    hw::Vaddr dataVa() const { return dataVa_; }
    std::uint64_t capacity() const { return capacity_; }

  private:
    hw::Vaddr headVa_ = 0;  ///< reader cursor (absolute stream offset)
    hw::Vaddr tailVa_ = 0;  ///< writer cursor
    hw::Vaddr dataVa_ = 0;
    std::uint64_t capacity_ = 0;
};

/**
 * Baseline channel: AES-GCM over untrusted memory. The key is
 * pre-provisioned to both endpoint enclaves (as the paper assumes after
 * local attestation). Sequence numbers make replay detectable.
 */
class GcmChannel {
  public:
    /**
     * Maps `capacity` bytes of untrusted memory in the process and binds
     * the channel to a symmetric key.
     */
    static Result<GcmChannel> create(sdk::Urts& urts, std::uint64_t capacity,
                                     ByteView key);

    /** Seals and writes one message (charges software-GCM cost). */
    Status send(sdk::TrustedEnv& env, ByteView message);

    /** Reads, verifies and decrypts the next message. */
    Result<Bytes> recv(sdk::TrustedEnv& env);

    /** Untrusted-side tampering hook for tests: flips a ciphertext bit. */
    Status tamperNext(sdk::Urts& urts, hw::CoreId core = 0);

    hw::Vaddr dataVa() const { return dataVa_; }

  private:
    std::unique_ptr<crypto::AesGcm> gcm_;
    hw::Vaddr dataVa_ = 0;
    std::uint64_t capacity_ = 0;
    std::uint64_t head_ = 0;  ///< reader stream offset (enclave-side state)
    std::uint64_t tail_ = 0;  ///< writer stream offset
    std::uint64_t sendSeq_ = 0;
    std::uint64_t recvSeq_ = 0;
};

}  // namespace nesgx::core
