/**
 * Arbitrary-precision unsigned integers, sized for RSA (512-3072 bit).
 *
 * Backs the SIGSTRUCT signing path. Division is Knuth's Algorithm D over
 * 32-bit limbs; modular exponentiation is Montgomery multiplication over
 * 64-bit words and never divides. With a full-width exponent on one core
 * of a 4-vCPU x86-64 host, powMod takes ~0.15 ms at 512 bits, ~0.85 ms at
 * 1024 and ~6 ms at 2048. Real SGX signs enclaves with RSA-3072; the model
 * defaults to RSA-1024 (crypto/rsa.h says why), exercising the identical
 * code path.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/rng.h"

namespace nesgx::crypto {

/** Unsigned big integer stored as little-endian 32-bit limbs. */
class BigUint {
  public:
    BigUint() = default;
    explicit BigUint(std::uint64_t v);

    /** Builds from big-endian bytes (standard crypto wire format). */
    static BigUint fromBytesBe(ByteView bytes);

    /** Builds from a hex string. */
    static BigUint fromHex(const std::string& hex);

    /** Uniform random value with exactly `bits` bits (top bit set). */
    static BigUint randomBits(Rng& rng, std::size_t bits);

    /** Serializes as big-endian bytes, left-padded to `width` (0 = minimal). */
    Bytes toBytesBe(std::size_t width = 0) const;

    std::string toHex() const;

    bool isZero() const;
    bool isOdd() const;
    std::size_t bitLength() const;
    bool bit(std::size_t i) const;

    // Comparison.
    static int compare(const BigUint& a, const BigUint& b);
    bool operator==(const BigUint& o) const { return compare(*this, o) == 0; }
    bool operator!=(const BigUint& o) const { return compare(*this, o) != 0; }
    bool operator<(const BigUint& o) const { return compare(*this, o) < 0; }
    bool operator<=(const BigUint& o) const { return compare(*this, o) <= 0; }
    bool operator>(const BigUint& o) const { return compare(*this, o) > 0; }
    bool operator>=(const BigUint& o) const { return compare(*this, o) >= 0; }

    // Arithmetic.
    BigUint operator+(const BigUint& o) const;
    /** Requires *this >= o. */
    BigUint operator-(const BigUint& o) const;
    BigUint operator*(const BigUint& o) const;
    BigUint operator%(const BigUint& m) const;
    BigUint operator/(const BigUint& d) const;
    BigUint operator<<(std::size_t bits) const;
    BigUint operator>>(std::size_t bits) const;

    /** (this - o) mod m; operands must already be < m. */
    BigUint subMod(const BigUint& o, const BigUint& m) const;
    /** (this * o) mod m. */
    BigUint mulMod(const BigUint& o, const BigUint& m) const;
    /**
     * this^e mod m for an odd m (throws invalid_argument on an even or zero
     * one): 4-bit fixed windows over Montgomery (CIOS) products of 64-bit
     * words, allocation-free once the window table is built. The table
     * holds base^0..base^d for the exponent's largest 4-bit digit d, so a
     * public exponent of 65537 (digits 1, 0, 0, 0, 1) builds two entries
     * and a full-width private one all 16. Not constant-time.
     */
    BigUint powMod(const BigUint& e, const BigUint& m) const;
    /** Modular inverse; m must be coprime with *this. */
    BigUint invMod(const BigUint& m) const;

    static BigUint gcd(BigUint a, BigUint b);

    /** Miller-Rabin probabilistic primality test. */
    bool isProbablyPrime(Rng& rng, int rounds = 24) const;

    /** Generates a random prime with exactly `bits` bits. */
    static BigUint generatePrime(Rng& rng, std::size_t bits);

    const std::vector<std::uint32_t>& limbs() const { return limbs_; }

  private:
    void trim();
    static void divMod(const BigUint& num, const BigUint& den, BigUint& q,
                       BigUint& r);

    std::vector<std::uint32_t> limbs_;  // little-endian, no trailing zeros
};

}  // namespace nesgx::crypto
