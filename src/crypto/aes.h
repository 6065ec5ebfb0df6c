/**
 * AES-128/256 block cipher and AES-CTR mode (FIPS 197 / SP 800-38A).
 *
 * The block cipher backs the AES-GCM channel baseline (paper §VI-C) and the
 * memory encryption engine model (per-cacheline AES-CTR, following the MEE
 * design sketch in Gueron's MEE paper cited by the reproduction target).
 */
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.h"

namespace nesgx::crypto {

constexpr std::size_t kAesBlockSize = 16;

using AesBlock = std::array<std::uint8_t, kAesBlockSize>;

/** Expanded-key AES context supporting 128- and 256-bit keys. */
class Aes {
  public:
    /** key.size() must be 16 or 32. */
    explicit Aes(ByteView key);

    /** Encrypts one 16-byte block in place. */
    void encryptBlock(std::uint8_t* block) const;

    int rounds() const { return rounds_; }

    /** Round key r (0..rounds()) as bytes, the layout AES-NI takes. */
    AesBlock roundKey(int r) const;

  private:
    void expandKey(ByteView key);

    std::uint32_t roundKeys_[60];
    int rounds_;
};

/**
 * AES-CTR keystream application: out[i] = in[i] ^ E(counter_block(i)).
 * Encrypt and decrypt are the same operation.
 */
void aesCtrXcrypt(const Aes& aes, const AesBlock& iv, ByteView in,
                  std::uint8_t* out);

}  // namespace nesgx::crypto
