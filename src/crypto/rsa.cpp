#include "crypto/rsa.h"

#include <stdexcept>

namespace nesgx::crypto {

namespace {

// DER prefix for a SHA-256 DigestInfo (RFC 8017 §9.2 note 1).
const std::uint8_t kSha256DigestInfo[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20,
};

// The narrowest modulus PKCS#1 can encode into: DigestInfo, digest and
// 11 bytes of padding (RFC 8017 §9.2 step 3).
constexpr std::size_t kMinModulusBytes =
    sizeof(kSha256DigestInfo) + kSha256DigestSize + 11;

/** EMSA-PKCS1-v1_5 encoding of SHA-256(message) into `width` bytes. */
Bytes
pkcs1Encode(ByteView message, std::size_t width)
{
    Sha256Digest digest = Sha256::hash(message);
    std::size_t tLen = sizeof(kSha256DigestInfo) + digest.size();
    if (width < kMinModulusBytes) {
        throw std::invalid_argument("rsa: modulus too small for PKCS#1");
    }
    Bytes em(width, 0xff);
    em[0] = 0x00;
    em[1] = 0x01;
    em[width - tLen - 1] = 0x00;
    std::copy(std::begin(kSha256DigestInfo), std::end(kSha256DigestInfo),
              em.begin() + (width - tLen));
    std::copy(digest.begin(), digest.end(),
              em.begin() + (width - digest.size()));
    return em;
}

}  // namespace

Sha256Digest
RsaPublicKey::signerMeasurement() const
{
    Bytes modulus = n.toBytesBe();
    return Sha256::hash(modulus);
}

RsaKeyPair
RsaKeyPair::generate(Rng& rng, std::size_t modulusBits)
{
    const BigUint e(65537);
    const BigUint one(1);
    for (;;) {
        BigUint p = BigUint::generatePrime(rng, modulusBits / 2);
        BigUint q = BigUint::generatePrime(rng, modulusBits - modulusBits / 2);
        if (p == q) continue;
        // e must be invertible mod (p-1)(q-1), that is, mod both factors.
        BigUint pm1 = p - one;
        BigUint qm1 = q - one;
        if (BigUint::gcd(e, pm1) != one || BigUint::gcd(e, qm1) != one) {
            continue;
        }
        return RsaKeyPair{RsaPublicKey{p * q, e}, p, q, e.invMod(pm1),
                          e.invMod(qm1), q.invMod(p)};
    }
}

Bytes
rsaSign(const RsaKeyPair& key, ByteView message)
{
    std::size_t width = key.pub.modulusBytes();
    BigUint m = BigUint::fromBytesBe(pkcs1Encode(message, width));
    // RSASP1 in CRT form (RFC 8017 §5.1.2 step 2b): two half-width
    // exponentiations, then Garner's recombination. s2 can exceed p when
    // q > p, hence the reduction before the subtraction.
    BigUint s1 = m.powMod(key.dp, key.p);
    BigUint s2 = m.powMod(key.dq, key.q);
    BigUint h = key.qInv.mulMod(s1.subMod(s2 % key.p, key.p), key.p);
    return (s2 + key.q * h).toBytesBe(width);
}

bool
rsaVerify(const RsaPublicKey& key, ByteView message, ByteView signature)
{
    std::size_t width = key.modulusBytes();
#ifndef NESGX_BUG_SIGNER_KEY_UNCHECKED
    // Check the host-supplied key before any arithmetic: powMod needs an
    // odd modulus and PKCS#1 a wide enough one.
    if (!key.n.isOdd() || width < kMinModulusBytes) return false;
#endif
    if (signature.size() != width) return false;
    BigUint s = BigUint::fromBytesBe(signature);
    if (s >= key.n) return false;
    BigUint m = s.powMod(key.e, key.n);
    Bytes em = m.toBytesBe(width);
    Bytes expected = pkcs1Encode(message, width);
    return constantTimeEqual(em, expected);
}

}  // namespace nesgx::crypto
