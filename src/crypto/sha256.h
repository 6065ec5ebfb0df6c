/**
 * SHA-256 (FIPS 180-4).
 *
 * Used for enclave measurement (MRENCLAVE accumulation over
 * ECREATE/EADD/EEXTEND records, MRSIGNER = SHA-256 of the signer's RSA
 * modulus), the MEE integrity tree, and the RSA PKCS#1 digest.
 */
#pragma once

#include <array>
#include <cstdint>

#include "crypto/kernel.h"
#include "support/bytes.h"

namespace nesgx::crypto {

constexpr std::size_t kSha256DigestSize = 32;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/** Incremental SHA-256 context. */
class Sha256 {
  public:
    /**
     * The host must be able to run `kernel` (see sha256Kernel());
     * otherwise throws std::invalid_argument.
     */
    explicit Sha256(Kernel kernel = sha256Kernel());

    /** Absorbs more message bytes. */
    void update(ByteView data);

    /** Finalizes and returns the digest; the context must not be reused. */
    Sha256Digest finish();

    /** One-shot convenience. */
    static Sha256Digest hash(ByteView data);

    /**
     * True when both contexts have absorbed the same message so far:
     * equal chaining words, length and buffered bytes. The kernel is not
     * part of the state; every kernel computes the same digest.
     */
    bool sameState(const Sha256& other) const;

    /** Cheap, non-cryptographic hash of the absorbed state for bucketing
     *  contexts: contexts for which sameState holds hash equal. */
    std::uint64_t stateHash() const;

  private:
    /** Compresses `count` whole 64-byte blocks on the context's kernel. */
    void compress(const std::uint8_t* blocks, std::size_t count);
    /** The portable kernel's compression of one block. */
    void processBlock(const std::uint8_t* block);

    Kernel kernel_;
    std::uint32_t state_[8];
    std::uint8_t buffer_[64];
    std::size_t bufferLen_ = 0;
    std::uint64_t totalLen_ = 0;
};

/** Digest as a byte vector (handy for concatenations). */
Bytes toBytes(const Sha256Digest& d);

}  // namespace nesgx::crypto
