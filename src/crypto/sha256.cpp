#include "crypto/sha256.h"

#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace nesgx::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

/**
 * SHA-NI compression. SHA256RNDS2 runs two rounds on the state split as
 * (A, B, E, F) and (C, D, G, H); SHA256MSG1/MSG2 extend the message
 * schedule four words at a time.
 */
__attribute__((target("sha,ssse3,sse4.1"))) void
compressX86(std::uint32_t state[8], const std::uint8_t* blocks,
            std::size_t count)
{
    const __m128i byteSwap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
    __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
    __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
    __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; count > 0; --count, blocks += 64) {
        const __m128i abefIn = abef;
        const __m128i cdghIn = cdgh;
        // w[j] holds schedule words 4g..4g+3 for the group g = j mod 4.
        __m128i w[4];
        for (int j = 0; j < 4; ++j) {
            w[j] = _mm_shuffle_epi8(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(blocks + 16 * j)),
                byteSwap);
        }
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            __m128i wk = _mm_add_epi32(
                w[g % 4],
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * g)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            if (g < 12) {
                // Words 4(g+4).. from groups g, g+1, g+2 and g+3.
                __m128i next = _mm_add_epi32(
                    _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]),
                    _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
                w[g % 4] = _mm_sha256msg2_epu32(next, w[(g + 3) % 4]);
            }
        }
        abef = _mm_add_epi32(abef, abefIn);
        cdgh = _mm_add_epi32(cdgh, cdghIn);
    }

    __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // __x86_64__

}  // namespace

Sha256::Sha256(Kernel kernel) : kernel_(kernel)
{
    if (kernel != Kernel::Portable && kernel != sha256Kernel()) {
        throw std::invalid_argument("Sha256: the host cannot run this kernel");
    }
    std::memcpy(state_, kInit, sizeof(state_));
}

void
Sha256::compress(const std::uint8_t* blocks, std::size_t count)
{
#if defined(__x86_64__)
    if (kernel_ == Kernel::X86) {
        compressX86(state_, blocks, count);
        return;
    }
#endif
    for (; count > 0; --count, blocks += 64) processBlock(blocks);
}

void
Sha256::update(ByteView data)
{
    totalLen_ += data.size();
    std::size_t offset = 0;
    if (bufferLen_ > 0) {
        std::size_t take = std::min<std::size_t>(64 - bufferLen_, data.size());
        std::memcpy(buffer_ + bufferLen_, data.data(), take);
        bufferLen_ += take;
        offset = take;
        if (bufferLen_ == 64) {
            compress(buffer_, 1);
            bufferLen_ = 0;
        }
    }
    std::size_t whole = (data.size() - offset) / 64;
    compress(data.data() + offset, whole);
    offset += 64 * whole;
    if (offset < data.size()) {
        bufferLen_ = data.size() - offset;
        std::memcpy(buffer_, data.data() + offset, bufferLen_);
    }
}

Sha256Digest
Sha256::finish()
{
    std::uint64_t bitLen = totalLen_ * 8;
    std::uint8_t pad[72];
    std::size_t padLen = (bufferLen_ < 56) ? (56 - bufferLen_) : (120 - bufferLen_);
    pad[0] = 0x80;
    std::memset(pad + 1, 0, padLen - 1);
    storeBe64(pad + padLen, bitLen);
    update(ByteView(pad, padLen + 8));

    Sha256Digest out;
    for (int i = 0; i < 8; ++i) {
        storeBe32(out.data() + 4 * i, state_[i]);
    }
    return out;
}

Sha256Digest
Sha256::hash(ByteView data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.finish();
}

bool
Sha256::sameState(const Sha256& other) const
{
    // The length fixes bufferLen_, so only the buffered bytes remain.
    return totalLen_ == other.totalLen_ &&
           std::memcmp(state_, other.state_, sizeof(state_)) == 0 &&
           std::memcmp(buffer_, other.buffer_, bufferLen_) == 0;
}

std::uint64_t
Sha256::stateHash() const
{
    std::uint64_t h = totalLen_;
    for (std::uint32_t word : state_) h = (h ^ word) * 0x100000001b3ull;
    return h;
}

void
Sha256::processBlock(const std::uint8_t* block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = loadBe32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
        std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

    for (int i = 0; i < 64; ++i) {
        std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        std::uint32_t ch = (e & f) ^ (~e & g);
        std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
        std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }

    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
}

Bytes
toBytes(const Sha256Digest& d)
{
    return Bytes(d.begin(), d.end());
}

}  // namespace nesgx::crypto
