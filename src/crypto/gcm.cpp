#include "crypto/gcm.h"

#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

#if defined(__x86_64__)

#define NESGX_GCM_TARGET __attribute__((target("aes,pclmul,ssse3,sse4.1")))
// The wide kernel: the x86 kernel's instructions plus their 256-bit VEX
// forms, which work on each 128-bit lane of a YMM register separately.
#define NESGX_GCM_WIDE_TARGET \
    __attribute__((target("aes,pclmul,ssse3,sse4.1,avx2,vaes,vpclmulqdq")))

// The x86 kernel keeps GHASH values byte-reversed, so a block's x^0
// coefficient is the register's top bit: the layout PCLMULQDQ multiplies
// in (Gueron and Kounavis, "Intel Carry-Less Multiplication Instruction
// and its Usage for Computing the GCM Mode").
NESGX_GCM_TARGET inline __m128i
reverseBytes(__m128i v)
{
    return _mm_shuffle_epi8(
        v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

NESGX_GCM_TARGET inline __m128i
loadBlock(const AesBlock& b)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.data()));
}

NESGX_GCM_TARGET inline __m128i
loadReversed(const std::uint8_t* p)
{
    return reverseBytes(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

// A sum of unreduced 256-bit carry-less products, as the sums of their
// low, middle and high partial products.
struct WideProduct {
    __m128i lo = _mm_setzero_si128();
    __m128i mid = _mm_setzero_si128();
    __m128i hi = _mm_setzero_si128();
};

NESGX_GCM_TARGET inline void
mulAccumulate(WideProduct& w, __m128i a, __m128i b)
{
    w.lo = _mm_xor_si128(w.lo, _mm_clmulepi64_si128(a, b, 0x00));
    w.hi = _mm_xor_si128(w.hi, _mm_clmulepi64_si128(a, b, 0x11));
    w.mid = _mm_xor_si128(w.mid,
                          _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x01),
                                        _mm_clmulepi64_si128(a, b, 0x10)));
}

/** Reduces a WideProduct modulo x^128 + x^7 + x^2 + x + 1. */
NESGX_GCM_TARGET inline __m128i
reduce(const WideProduct& w)
{
    __m128i lo = _mm_xor_si128(w.lo, _mm_slli_si128(w.mid, 8));
    __m128i hi = _mm_xor_si128(w.hi, _mm_srli_si128(w.mid, 8));

    // Reversed operands leave the product one bit low: shift [hi:lo] left.
    __m128i loCarry = _mm_srli_epi32(lo, 31);
    __m128i hiCarry = _mm_srli_epi32(hi, 31);
    lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(loCarry, 4));
    hi = _mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hiCarry, 4));
    hi = _mm_or_si128(hi, _mm_srli_si128(loCarry, 12));

    // Fold the x^128..x^255 half (lo) into hi in two shift-and-XOR phases.
    __m128i a = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
        _mm_slli_epi32(lo, 25));
    lo = _mm_xor_si128(lo, _mm_slli_si128(a, 12));
    __m128i b = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
        _mm_srli_epi32(lo, 7));
    b = _mm_xor_si128(b, _mm_srli_si128(a, 4));
    return _mm_xor_si128(hi, _mm_xor_si128(lo, b));
}

NESGX_GCM_TARGET inline __m128i
gfMul(__m128i a, __m128i b)
{
    WideProduct w;
    mulAccumulate(w, a, b);
    return reduce(w);
}

/** powers[i] = H^(i+1), byte-reversed, for i < count. */
NESGX_GCM_TARGET void
ghashPowersX86(const std::uint8_t h[16], AesBlock powers[], int count)
{
    const __m128i h1 = loadReversed(h);
    __m128i p = h1;
    for (int i = 0; i < count; ++i) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(powers[i].data()), p);
        p = gfMul(p, h1);
    }
}

NESGX_GCM_TARGET void
ghashBlocksX86(std::uint8_t y[16], const AesBlock powers[],
               const std::uint8_t* p, std::size_t count)
{
    __m128i h[4];
    for (int i = 0; i < 4; ++i) h[i] = loadBlock(powers[i]);
    __m128i acc = loadReversed(y);
    // Four blocks, one reduction:
    // Y' = (Y + X0)·H^4 + X1·H^3 + X2·H^2 + X3·H.
    for (; count >= 4; count -= 4, p += 64) {
        WideProduct w;
        mulAccumulate(w, h[3], _mm_xor_si128(acc, loadReversed(p)));
        mulAccumulate(w, h[2], loadReversed(p + 16));
        mulAccumulate(w, h[1], loadReversed(p + 32));
        mulAccumulate(w, h[0], loadReversed(p + 48));
        acc = reduce(w);
    }
    for (; count > 0; --count, p += 16) {
        acc = gfMul(_mm_xor_si128(acc, loadReversed(p)), h[0]);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(y), reverseBytes(acc));
}

/** The counter block for `word`: `prefix` with its last 4 bytes big-endian. */
NESGX_GCM_TARGET inline __m128i
counterBlock(__m128i prefix, std::uint32_t word)
{
    return _mm_insert_epi32(prefix, static_cast<int>(__builtin_bswap32(word)),
                            3);
}

NESGX_GCM_TARGET inline __m128i
encryptX86(__m128i b, const __m128i* rk, int rounds)
{
    b = _mm_xor_si128(b, rk[0]);
    for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, rk[r]);
    return _mm_aesenclast_si128(b, rk[rounds]);
}

/** aesCtrXcrypt on AES-NI: the low counter word wraps mod 2^32 the same way. */
NESGX_GCM_TARGET void
ctrX86(const AesBlock roundKeys[15], int rounds, const AesBlock& counter,
       ByteView in, std::uint8_t* out)
{
    __m128i rk[15];
    for (int r = 0; r <= rounds; ++r) rk[r] = loadBlock(roundKeys[r]);
    const __m128i prefix = loadBlock(counter);
    std::uint32_t word = loadBe32(counter.data() + 12);
    const std::uint8_t* src = in.data();
    std::size_t left = in.size();

    // Eight independent blocks keep the AES unit's pipeline full.
    for (; left >= 128; left -= 128, src += 128, out += 128, word += 8) {
        __m128i b[8];
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            b[i] = _mm_xor_si128(counterBlock(prefix, word + i), rk[0]);
        }
        for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
            for (int i = 0; i < 8; ++i) b[i] = _mm_aesenc_si128(b[i], rk[r]);
        }
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            __m128i data = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(src + 16 * i));
            _mm_storeu_si128(
                reinterpret_cast<__m128i*>(out + 16 * i),
                _mm_xor_si128(_mm_aesenclast_si128(b[i], rk[rounds]), data));
        }
    }
    for (; left >= 16; left -= 16, src += 16, out += 16, ++word) {
        __m128i data = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(out),
            _mm_xor_si128(encryptX86(counterBlock(prefix, word), rk, rounds),
                          data));
    }
    if (left > 0) {
        std::uint8_t ks[16];
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(ks),
            encryptX86(counterBlock(prefix, word), rk, rounds));
        for (std::size_t i = 0; i < left; ++i) out[i] = src[i] ^ ks[i];
    }
}

/** Two consecutive blocks, each byte-reversed in its own lane. */
NESGX_GCM_WIDE_TARGET inline __m256i
loadReversedPair(const std::uint8_t* p)
{
    const __m256i reverse = _mm256_broadcastsi128_si256(
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
    return _mm256_shuffle_epi8(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), reverse);
}

/** The lanes of a 256-bit partial product, added into one. */
NESGX_GCM_WIDE_TARGET inline __m128i
foldLanes(__m256i v)
{
    return _mm_xor_si128(_mm256_castsi256_si128(v),
                         _mm256_extracti128_si256(v, 1));
}

/**
 * ghashBlocksX86 sixteen blocks per reduction, two per YMM register:
 * Y' = (Y + X0)·H^16 + X1·H^15 + ... + X15·H. Under sixteen blocks, and
 * the last count % 16, run on the x86 loops.
 */
NESGX_GCM_WIDE_TARGET void
ghashBlocksVaes(std::uint8_t y[16], const AesBlock powers[16],
                const std::uint8_t* p, std::size_t count)
{
    if (count >= 16) {
        // Pair j multiplies blocks 2j and 2j + 1 by H^(16-2j), H^(15-2j).
        __m256i h[8];
        for (int j = 0; j < 8; ++j) {
            h[j] = _mm256_setr_m128i(loadBlock(powers[15 - 2 * j]),
                                     loadBlock(powers[14 - 2 * j]));
        }
        // Y joins block 0 only: the upper lane stays zero.
        __m256i acc = _mm256_zextsi128_si256(loadReversed(y));
        for (; count >= 16; count -= 16, p += 256) {
            __m256i lo = _mm256_setzero_si256();
            __m256i mid = _mm256_setzero_si256();
            __m256i hi = _mm256_setzero_si256();
#pragma GCC unroll 8
            for (int j = 0; j < 8; ++j) {
                __m256i x = loadReversedPair(p + 32 * j);
                if (j == 0) x = _mm256_xor_si256(x, acc);
                lo = _mm256_xor_si256(lo,
                                      _mm256_clmulepi64_epi128(x, h[j], 0x00));
                hi = _mm256_xor_si256(hi,
                                      _mm256_clmulepi64_epi128(x, h[j], 0x11));
                mid = _mm256_xor_si256(
                    mid, _mm256_xor_si256(
                             _mm256_clmulepi64_epi128(x, h[j], 0x01),
                             _mm256_clmulepi64_epi128(x, h[j], 0x10)));
            }
            WideProduct w;
            w.lo = foldLanes(lo);
            w.mid = foldLanes(mid);
            w.hi = foldLanes(hi);
            acc = _mm256_zextsi128_si256(reduce(w));
        }
        _mm_storeu_si128(reinterpret_cast<__m128i*>(y),
                         reverseBytes(_mm256_castsi256_si128(acc)));
    }
    ghashBlocksX86(y, powers, p, count);
}

/**
 * ctrX86 sixteen blocks per iteration, two per YMM register. Under 256
 * bytes, and the last in.size() % 256, run on ctrX86 from the next
 * counter.
 */
NESGX_GCM_WIDE_TARGET void
ctrVaes(const AesBlock roundKeys[15], int rounds, const AesBlock& counter,
        ByteView in, std::uint8_t* out)
{
    const std::size_t wide = in.size() - in.size() % 256;
    std::uint32_t word = loadBe32(counter.data() + 12);
    if (wide > 0) {
        __m256i rk[15];
        for (int r = 0; r <= rounds; ++r) {
            rk[r] = _mm256_broadcastsi128_si256(loadBlock(roundKeys[r]));
        }
        // The counter word stays in host order, so one 32-bit add steps
        // it mod 2^32 as ctrX86 does; a shuffle makes each block's copy
        // big-endian. Lane 0 holds the even block, lane 1 the odd one.
        const __m256i bigEndianWord = _mm256_broadcastsi128_si256(
            _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 14, 13, 12));
        const __m256i two = _mm256_setr_epi32(0, 0, 0, 2, 0, 0, 0, 2);
        __m256i next = _mm256_add_epi32(
            _mm256_broadcastsi128_si256(
                _mm_insert_epi32(loadBlock(counter), static_cast<int>(word), 3)),
            _mm256_setr_epi32(0, 0, 0, 0, 0, 0, 0, 1));
        const std::uint8_t* src = in.data();
        std::uint8_t* dst = out;
        for (std::size_t left = wide; left > 0;
             left -= 256, src += 256, dst += 256) {
            __m256i b[8];
#pragma GCC unroll 8
            for (int i = 0; i < 8; ++i) {
                b[i] = _mm256_xor_si256(
                    _mm256_shuffle_epi8(next, bigEndianWord), rk[0]);
                next = _mm256_add_epi32(next, two);
            }
            for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
                for (int i = 0; i < 8; ++i) {
                    b[i] = _mm256_aesenc_epi128(b[i], rk[r]);
                }
            }
#pragma GCC unroll 8
            for (int i = 0; i < 8; ++i) {
                __m256i data = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(src + 32 * i));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i*>(dst + 32 * i),
                    _mm256_xor_si256(_mm256_aesenclast_epi128(b[i], rk[rounds]),
                                     data));
            }
        }
        word += static_cast<std::uint32_t>(wide / 16);
    }
    AesBlock rest = counter;
    storeBe32(rest.data() + 12, word);
    ctrX86(roundKeys, rounds, rest, in.subspan(wide), out + wide);
}

#endif  // __x86_64__

}  // namespace

AesGcm::AesGcm(ByteView key, Kernel kernel) : aes_(key), kernel_(kernel)
{
    if (kernel > gcmKernel()) {
        throw std::invalid_argument("AesGcm: the host cannot run this kernel");
    }
    std::uint8_t h[16] = {};
    aes_.encryptBlock(h);
#if defined(__x86_64__)
    if (kernel != Kernel::Portable) {
        for (int r = 0; r <= aes_.rounds(); ++r) roundKeys_[r] = aes_.roundKey(r);
        ghashPowersX86(h, hPowers_, kernel == Kernel::Vaes ? 16 : 4);
        return;
    }
#endif
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
AesGcm::ctrXcrypt(const AesBlock& counter, ByteView in, std::uint8_t* out) const
{
#if defined(__x86_64__)
    if (kernel_ == Kernel::Vaes) {
        ctrVaes(roundKeys_, aes_.rounds(), counter, in, out);
        return;
    }
    if (kernel_ == Kernel::X86) {
        ctrX86(roundKeys_, aes_.rounds(), counter, in, out);
        return;
    }
#endif
    aesCtrXcrypt(aes_, counter, in, out);
}

void
AesGcm::ghashBlocks(std::uint8_t y[16], const std::uint8_t* blocks,
                    std::size_t count) const
{
#if defined(__x86_64__)
    if (kernel_ == Kernel::Vaes) {
        ghashBlocksVaes(y, hPowers_, blocks, count);
        return;
    }
    if (kernel_ == Kernel::X86) {
        ghashBlocksX86(y, hPowers_, blocks, count);
        return;
    }
#endif
    for (; count > 0; --count, blocks += 16) {
        for (int i = 0; i < 16; ++i) y[i] ^= blocks[i];
        mulH(y, hTable_);
    }
}

void
AesGcm::ghash(ByteView aad, ByteView ct, std::uint8_t out[16]) const
{
    std::memset(out, 0, 16);

    // Each input is zero-padded to whole blocks.
    auto absorb = [&](ByteView data) {
        std::size_t whole = data.size() / 16;
        ghashBlocks(out, data.data(), whole);
        if (std::size_t tail = data.size() % 16) {
            std::uint8_t last[16] = {};
            std::memcpy(last, data.data() + 16 * whole, tail);
            ghashBlocks(out, last, 1);
        }
    };

    absorb(aad);
    absorb(ct);

    std::uint8_t lengths[16];
    storeBe64(lengths, std::uint64_t(aad.size()) * 8);
    storeBe64(lengths + 8, std::uint64_t(ct.size()) * 8);
    ghashBlocks(out, lengths, 1);
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
    ctrXcrypt(ctr, plaintext, out.data());

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
    ctrXcrypt(ctr, ByteView(sealed.data(), ctLen), plain.data());
    return plain;
}

}  // namespace nesgx::crypto
