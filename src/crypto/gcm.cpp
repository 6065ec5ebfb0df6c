#include "crypto/gcm.h"

#include <cstring>
#include <stdexcept>

namespace nesgx::crypto {

namespace {

// Reduction of the four bits a 4-bit shift moves past x^127: bit b of the
// nibble (the x^(127-b) coefficient) becomes x^(3-b) * x^128, and
// x^128 = x^7 + x^2 + x + 1 is 0xe1 in GCM's reflected top byte.
struct NibbleReduction {
    std::uint64_t r[16];

    constexpr NibbleReduction() : r{}
    {
        for (int rem = 0; rem < 16; ++rem) {
            for (int b = 0; b < 4; ++b) {
                if (rem & (1 << b)) r[rem] ^= 0xe100ull << (45 + b);
            }
        }
    }
};

constexpr NibbleReduction kReduce;

/** x <- x * H in GF(2^128): Shoup's 4-bit method over the per-key table. */
void
mulH(std::uint8_t x[16], const std::uint64_t table[16][2])
{
    std::uint64_t zh = 0, zl = 0;
    auto step = [&](int nibble) {
        std::uint64_t rem = zl & 0xf;
        zl = (zh << 60) | (zl >> 4);
        zh = (zh >> 4) ^ kReduce.r[rem] ^ table[nibble][0];
        zl ^= table[nibble][1];
    };
    // Horner from the highest-degree nibble: GCM numbers bits from the
    // MSB, so byte 15's low nibble holds the top coefficients.
    for (int i = 15; i >= 0; --i) {
        step(x[i] & 0xf);
        step(x[i] >> 4);
    }
    storeBe64(x, zh);
    storeBe64(x + 8, zl);
}

}  // namespace

AesGcm::AesGcm(ByteView key) : aes_(key)
{
    std::uint8_t h[16] = {};
    aes_.encryptBlock(h);
    // A nibble's high bit is its x^0 coefficient, so entry 8 is H and
    // entries 4, 2, 1 are H*x, H*x^2, H*x^3; the rest are XORs of those.
    std::uint64_t vh = loadBe64(h);
    std::uint64_t vl = loadBe64(h + 8);
    hTable_[0][0] = hTable_[0][1] = 0;
    for (int i = 8; i > 0; i >>= 1) {
        hTable_[i][0] = vh;
        hTable_[i][1] = vl;
        bool lsb = vl & 1;
        vl = (vl >> 1) | (vh << 63);
        vh = (vh >> 1) ^ (lsb ? 0xe100000000000000ull : 0);
    }
    for (int i = 2; i < 16; i <<= 1) {
        for (int j = 1; j < i; ++j) {
            hTable_[i + j][0] = hTable_[i][0] ^ hTable_[j][0];
            hTable_[i + j][1] = hTable_[i][1] ^ hTable_[j][1];
        }
    }
}

void
AesGcm::ghash(ByteView aad, ByteView ct, std::uint8_t out[16]) const
{
    std::memset(out, 0, 16);

    auto absorb = [&](ByteView data) {
        std::size_t offset = 0;
        while (offset < data.size()) {
            std::size_t take = std::min<std::size_t>(16, data.size() - offset);
            for (std::size_t i = 0; i < take; ++i) {
                out[i] ^= data[offset + i];
            }
            mulH(out, hTable_);
            offset += take;
        }
    };

    absorb(aad);
    absorb(ct);

    std::uint8_t lengths[16];
    storeBe64(lengths, std::uint64_t(aad.size()) * 8);
    storeBe64(lengths + 8, std::uint64_t(ct.size()) * 8);
    for (int i = 0; i < 16; ++i) out[i] ^= lengths[i];
    mulH(out, hTable_);
}

Bytes
AesGcm::seal(ByteView iv, ByteView aad, ByteView plaintext) const
{
    if (iv.size() != kGcmIvSize) {
        throw std::invalid_argument("AesGcm: IV must be 12 bytes");
    }

    AesBlock j0{};
    std::memcpy(j0.data(), iv.data(), 12);
    j0[15] = 1;

    AesBlock ctr = j0;
    for (int i = 15; i >= 12; --i) {
        if (++ctr[i] != 0) break;
    }

    Bytes out(plaintext.size() + kGcmTagSize);
    aesCtrXcrypt(aes_, ctr, plaintext, out.data());

    std::uint8_t s[16];
    ghash(aad, ByteView(out.data(), plaintext.size()), s);

    std::uint8_t ek0[16];
    std::memcpy(ek0, j0.data(), 16);
    aes_.encryptBlock(ek0);
    for (int i = 0; i < 16; ++i) {
        out[plaintext.size() + i] = s[i] ^ ek0[i];
    }
    return out;
}

Result<Bytes>
AesGcm::open(ByteView iv, ByteView aad, ByteView sealed) const
{
    if (iv.size() != kGcmIvSize || sealed.size() < kGcmTagSize) {
        return Err::BadCallBuffer;
    }
    std::size_t ctLen = sealed.size() - kGcmTagSize;

    AesBlock j0{};
    std::memcpy(j0.data(), iv.data(), 12);
    j0[15] = 1;

    std::uint8_t s[16];
    ghash(aad, ByteView(sealed.data(), ctLen), s);

    std::uint8_t ek0[16];
    std::memcpy(ek0, j0.data(), 16);
    aes_.encryptBlock(ek0);
    std::uint8_t tag[16];
    for (int i = 0; i < 16; ++i) tag[i] = s[i] ^ ek0[i];

    if (!constantTimeEqual(ByteView(tag, 16),
                           ByteView(sealed.data() + ctLen, kGcmTagSize))) {
        return Err::ReportMacMismatch;
    }

    AesBlock ctr = j0;
    for (int i = 15; i >= 12; --i) {
        if (++ctr[i] != 0) break;
    }
    Bytes plain(ctLen);
    aesCtrXcrypt(aes_, ctr, ByteView(sealed.data(), ctLen), plain.data());
    return plain;
}

}  // namespace nesgx::crypto
