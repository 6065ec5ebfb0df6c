/**
 * RSA PKCS#1 v1.5 signatures over SHA-256.
 *
 * Real SGX enclave authors sign SIGSTRUCT with RSA-3072; the model uses the
 * identical format with a configurable modulus size. The default is 1024
 * bits because every pinned MRSIGNER and golden trace derives from it; cost
 * is not the reason: on one core of a 4-vCPU x86-64 host a 1024-bit key
 * generates in ~18 ms and signs in ~0.26 ms, a 3072-bit one in 0.2-2 s
 * (seed-dependent) and ~6 ms. MRSIGNER is SHA-256 over the public modulus,
 * exactly as in SGX.
 */
#pragma once

#include "crypto/bignum.h"
#include "crypto/sha256.h"
#include "support/bytes.h"
#include "support/rng.h"

namespace nesgx::crypto {

/** RSA public key (n, e). */
struct RsaPublicKey {
    BigUint n;
    BigUint e;

    /** SHA-256 over the big-endian modulus; SGX's MRSIGNER value. */
    Sha256Digest signerMeasurement() const;

    std::size_t modulusBytes() const { return (n.bitLength() + 7) / 8; }
};

/**
 * RSA key pair. The private half is kept only in CRT form (RFC 8017 §3.2,
 * second representation): dp = d mod (p-1), dq = d mod (q-1) and
 * qInv = q^-1 mod p.
 */
struct RsaKeyPair {
    RsaPublicKey pub;
    BigUint p, q;
    BigUint dp, dq, qInv;

    /** Generates a fresh key pair with the given modulus size. */
    static RsaKeyPair generate(Rng& rng, std::size_t modulusBits = 1024);
};

/**
 * Signs SHA-256(message) with PKCS#1 v1.5 padding. Deterministic: the CRT
 * path yields exactly m^d mod n.
 */
Bytes rsaSign(const RsaKeyPair& key, ByteView message);

/**
 * Verifies a PKCS#1 v1.5 SHA-256 signature. The key may be hostile (EINIT
 * takes it from the SIGSTRUCT): a zero, even or too-narrow modulus fails
 * verification rather than throwing.
 */
bool rsaVerify(const RsaPublicKey& key, ByteView message, ByteView signature);

}  // namespace nesgx::crypto
