#include "crypto/aes.h"

#include <cstring>
#include <stdexcept>

namespace nesgx::crypto {

namespace {

std::uint8_t
xtime(std::uint8_t a)
{
    return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
}

// S-box generated from the AES definition (multiplicative inverse in
// GF(2^8) followed by the affine transform), and the round T-tables built
// from it; computed at startup so the source carries the construction, not
// 1,280 magic numbers. te[r][x] is S[x] times MixColumns' column for an
// input byte in row r: (2S, S, S, 3S) for row 0, rotated right 8r bits.
struct SboxTables {
    std::uint8_t sbox[256];
    std::uint32_t te[4][256];

    SboxTables()
    {
        // Build log/alog tables over GF(2^8) with generator 3.
        std::uint8_t alog[256];
        std::uint8_t log[256] = {0};
        std::uint8_t x = 1;
        for (int i = 0; i < 255; ++i) {
            alog[i] = x;
            log[x] = static_cast<std::uint8_t>(i);
            // multiply by generator 0x03 = x ^ (x * 2)
            x = static_cast<std::uint8_t>(xtime(x) ^ x);
        }
        alog[255] = alog[0];

        for (int i = 0; i < 256; ++i) {
            std::uint8_t q = (i == 0)
                ? 0
                : alog[(255 - log[static_cast<std::uint8_t>(i)]) % 255];
            // Affine transform.
            std::uint8_t s = static_cast<std::uint8_t>(
                q ^ rotl8(q, 1) ^ rotl8(q, 2) ^ rotl8(q, 3) ^ rotl8(q, 4) ^
                0x63);
            sbox[i] = s;
            std::uint8_t s2 = xtime(s);
            te[0][i] = (std::uint32_t(s2) << 24) | (std::uint32_t(s) << 16) |
                       (std::uint32_t(s) << 8) | std::uint32_t(s2 ^ s);
            for (int r = 1; r < 4; ++r) {
                te[r][i] = (te[r - 1][i] >> 8) | (te[r - 1][i] << 24);
            }
        }
    }

    static std::uint8_t rotl8(std::uint8_t v, int n)
    {
        return static_cast<std::uint8_t>((v << n) | (v >> (8 - n)));
    }
};

const SboxTables& tables()
{
    static const SboxTables t;
    return t;
}

std::uint32_t
subWord(std::uint32_t w)
{
    const auto& t = tables();
    return (std::uint32_t(t.sbox[(w >> 24) & 0xff]) << 24) |
           (std::uint32_t(t.sbox[(w >> 16) & 0xff]) << 16) |
           (std::uint32_t(t.sbox[(w >> 8) & 0xff]) << 8) |
           std::uint32_t(t.sbox[w & 0xff]);
}

std::uint32_t
rotWord(std::uint32_t w)
{
    return (w << 8) | (w >> 24);
}

}  // namespace

Aes::Aes(ByteView key)
{
    if (key.size() != 16 && key.size() != 32) {
        throw std::invalid_argument("Aes: key must be 16 or 32 bytes");
    }
    expandKey(key);
}

void
Aes::expandKey(ByteView key)
{
    const int nk = static_cast<int>(key.size() / 4);
    rounds_ = nk + 6;
    const int total = 4 * (rounds_ + 1);

    for (int i = 0; i < nk; ++i) {
        roundKeys_[i] = loadBe32(key.data() + 4 * i);
    }
    std::uint32_t rcon = 0x01000000;
    for (int i = nk; i < total; ++i) {
        std::uint32_t temp = roundKeys_[i - 1];
        if (i % nk == 0) {
            temp = subWord(rotWord(temp)) ^ rcon;
            rcon = std::uint32_t(xtime(std::uint8_t(rcon >> 24))) << 24;
        } else if (nk > 6 && i % nk == 4) {
            temp = subWord(temp);
        }
        roundKeys_[i] = roundKeys_[i - nk] ^ temp;
    }
}

void
Aes::encryptBlock(std::uint8_t* block) const
{
    const auto& t = tables();
    const std::uint32_t* rk = roundKeys_;
    std::uint32_t s0 = loadBe32(block) ^ rk[0];
    std::uint32_t s1 = loadBe32(block + 4) ^ rk[1];
    std::uint32_t s2 = loadBe32(block + 8) ^ rk[2];
    std::uint32_t s3 = loadBe32(block + 12) ^ rk[3];

    // Output column c reads row r from input column c + r (ShiftRows);
    // te[r] applies SubBytes and MixColumns to that byte in one lookup.
    auto column = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                      std::uint32_t d) {
        return t.te[0][a >> 24] ^ t.te[1][(b >> 16) & 0xff] ^
               t.te[2][(c >> 8) & 0xff] ^ t.te[3][d & 0xff];
    };
    for (int round = 1; round < rounds_; ++round) {
        rk += 4;
        std::uint32_t t0 = column(s0, s1, s2, s3) ^ rk[0];
        std::uint32_t t1 = column(s1, s2, s3, s0) ^ rk[1];
        std::uint32_t t2 = column(s2, s3, s0, s1) ^ rk[2];
        std::uint32_t t3 = column(s3, s0, s1, s2) ^ rk[3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    // The final round skips MixColumns: S-box bytes in ShiftRows order.
    rk += 4;
    auto lastColumn = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                         std::uint32_t d) {
        return subWord((a & 0xff000000) | (b & 0x00ff0000) |
                       (c & 0x0000ff00) | (d & 0x000000ff));
    };
    storeBe32(block, lastColumn(s0, s1, s2, s3) ^ rk[0]);
    storeBe32(block + 4, lastColumn(s1, s2, s3, s0) ^ rk[1]);
    storeBe32(block + 8, lastColumn(s2, s3, s0, s1) ^ rk[2]);
    storeBe32(block + 12, lastColumn(s3, s0, s1, s2) ^ rk[3]);
}

AesBlock
Aes::roundKey(int r) const
{
    AesBlock out;
    for (int i = 0; i < 4; ++i) {
        storeBe32(out.data() + 4 * i, roundKeys_[4 * r + i]);
    }
    return out;
}

void
aesCtrXcrypt(const Aes& aes, const AesBlock& iv, ByteView in, std::uint8_t* out)
{
    AesBlock counter = iv;
    std::uint8_t keystream[16];
    std::size_t offset = 0;
    while (offset < in.size()) {
        std::memcpy(keystream, counter.data(), 16);
        aes.encryptBlock(keystream);
        std::size_t take = std::min<std::size_t>(16, in.size() - offset);
        for (std::size_t i = 0; i < take; ++i) {
            out[offset + i] = in[offset + i] ^ keystream[i];
        }
        offset += take;
        // Increment the big-endian counter in the low 4 bytes.
        for (int i = 15; i >= 12; --i) {
            if (++counter[i] != 0) break;
        }
    }
}

}  // namespace nesgx::crypto
