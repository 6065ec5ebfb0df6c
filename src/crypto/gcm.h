/**
 * AES-GCM authenticated encryption (NIST SP 800-38D).
 *
 * This is the software-encryption baseline the paper compares against for
 * enclave-to-enclave communication through untrusted memory (§VI-C,
 * Fig. 11): "we use AES-GCM for the protected communication between
 * monolithic enclaves".
 */
#pragma once

#include "crypto/aes.h"
#include "crypto/kernel.h"
#include "support/bytes.h"
#include "support/status.h"

namespace nesgx::crypto {

constexpr std::size_t kGcmTagSize = 16;
constexpr std::size_t kGcmIvSize = 12;

/** AES-GCM context bound to one key. */
class AesGcm {
  public:
    /**
     * key.size() must be 16 or 32, and the host must be able to run
     * `kernel` (see gcmKernel()); otherwise throws std::invalid_argument.
     */
    explicit AesGcm(ByteView key, Kernel kernel = gcmKernel());

    /**
     * Encrypts `plaintext` with the given 12-byte IV and additional data.
     * Output is ciphertext || 16-byte tag.
     */
    Bytes seal(ByteView iv, ByteView aad, ByteView plaintext) const;

    /**
     * Verifies and decrypts ciphertext||tag. Returns the plaintext or a
     * ReportMacMismatch fault when the tag does not verify.
     */
    Result<Bytes> open(ByteView iv, ByteView aad, ByteView sealed) const;

  private:
    // The two bulk primitives, each on the context's kernel.
    void ctrXcrypt(const AesBlock& counter, ByteView in,
                   std::uint8_t* out) const;
    void ghashBlocks(std::uint8_t y[16], const std::uint8_t* blocks,
                     std::size_t count) const;

    void ghash(ByteView aad, ByteView ct, std::uint8_t out[16]) const;

    Aes aes_;
    Kernel kernel_;
    // Portable: i * H for every 4-bit i as big-endian (high, low) halves,
    // where H = E(0^128) is the GHASH subkey (Shoup's 4-bit table).
    std::uint64_t hTable_[16][2] = {};
#if defined(__x86_64__)
    // X86 and Vaes: the round keys of aes_'s schedule, and H^1..H^4
    // byte-reversed for PCLMULQDQ; Vaes also fills H^5..H^16.
    AesBlock roundKeys_[15] = {};
    AesBlock hPowers_[16] = {};
#endif
};

}  // namespace nesgx::crypto
