/**
 * Crypto substrate tests: known-answer vectors for SHA-256, HMAC, AES and
 * AES-GCM (NIST/RFC test vectors), seeded SHA-256 and AES-GCM golden
 * corpora and differentials of each x86 and wide kernel against the
 * portable one, plus property tests for bignum/RSA.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/kdf.h"
#include "crypto/kernel.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace nesgx::crypto {
namespace {

std::string
digestHex(const Sha256Digest& d)
{
    return toHex(ByteView(d.data(), d.size()));
}

// --- Kernels ---------------------------------------------------------------

// The first CPUID flag the x86 kernel needs that the host lacks, or nullptr.
// Read through the compiler's __builtin_cpu_supports, independently of the
// library's own CPUID query.
const char*
missingGcmFlag()
{
#if defined(__x86_64__)
    if (!__builtin_cpu_supports("aes")) return "aes";
    if (!__builtin_cpu_supports("pclmul")) return "pclmul";
    if (!__builtin_cpu_supports("ssse3")) return "ssse3";
    if (!__builtin_cpu_supports("sse4.1")) return "sse4.1";
    return nullptr;
#else
    return "x86-64";
#endif
}

#if defined(__x86_64__)
/** Whether the OS saves YMM state: OSXSAVE, and XCR0 bits 1 and 2. */
bool
osSavesYmm()
{
    if (!__builtin_cpu_supports("osxsave")) return false;
    unsigned lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    return (lo & 0x6) == 0x6;
}
#endif

// What the wide GCM kernel needs that the host lacks, or nullptr. The OS
// check comes before the flags because the compiler's runtime reports
// AVX2, VAES and VPCLMULQDQ absent wherever the OS leaves YMM unsaved.
const char*
missingGcmVaesFlag()
{
    if (const char* flag = missingGcmFlag()) return flag;
#if defined(__x86_64__)
    if (!osSavesYmm()) return "YMM state saved by the OS (XCR0 bits 1 and 2)";
    if (!__builtin_cpu_supports("avx2")) return "avx2";
    if (!__builtin_cpu_supports("vaes")) return "vaes";
    if (!__builtin_cpu_supports("vpclmulqdq")) return "vpclmulqdq";
    return nullptr;
#else
    return "x86-64";
#endif
}

const char*
missingSha256Flag()
{
#if defined(__x86_64__)
    if (!__builtin_cpu_supports("sha")) return "sha";
    if (!__builtin_cpu_supports("ssse3")) return "ssse3";
    if (!__builtin_cpu_supports("sse4.1")) return "sse4.1";
    return nullptr;
#else
    return "x86-64";
#endif
}

/** Skips, naming the missing flag, where the host cannot run the kernel. */
template <const char* (*missingFlag)()>
class HostKernel : public testing::Test {
  protected:
    void SetUp() override
    {
        if (const char* flag = missingFlag()) {
            GTEST_SKIP() << "this kernel needs " << flag
                         << ", which this host lacks";
        }
    }
};

using AesGcmX86 = HostKernel<missingGcmFlag>;
using AesGcmVaes = HostKernel<missingGcmVaesFlag>;
using Sha256X86 = HostKernel<missingSha256Flag>;

// Defines Suite.Name, run on the portable kernel (the reference, which
// every host runs), SuiteX86.Name, run on the x86 kernel, and where the
// suite has one, SuiteVaes.Name on the wide kernel. The body that follows
// the macro sees the kernel as `kernel`.
#define TEST_ON_EACH_KERNEL(Suite, Name)                                    \
    void Suite##Name##Body(Kernel kernel);                                  \
    TEST(Suite, Name) { Suite##Name##Body(Kernel::Portable); }              \
    TEST_F(Suite##X86, Name) { Suite##Name##Body(Kernel::X86); }            \
    WIDE_INSTANCE_##Suite(Name)                                             \
    void Suite##Name##Body(Kernel kernel)

// SHA-256 has no wide kernel.
#define WIDE_INSTANCE_Sha256(Name)
#define WIDE_INSTANCE_AesGcm(Name)                                          \
    TEST_F(AesGcmVaes, Name) { AesGcm##Name##Body(Kernel::Vaes); }

/** Every GCM kernel past the portable one that the host runs. */
std::vector<Kernel>
hostGcmKernels()
{
    std::vector<Kernel> kernels;
    if (!missingGcmFlag()) kernels.push_back(Kernel::X86);
    if (!missingGcmVaesFlag()) kernels.push_back(Kernel::Vaes);
    return kernels;
}

TEST(CryptoKernel, SelectionFollowsCpuid)
{
    EXPECT_EQ(gcmKernel(), missingGcmFlag()       ? Kernel::Portable
                           : missingGcmVaesFlag() ? Kernel::X86
                                                  : Kernel::Vaes);
    EXPECT_EQ(sha256Kernel(),
              missingSha256Flag() ? Kernel::Portable : Kernel::X86);

    // Asking for a kernel the host cannot run fails like a bad key size.
    Bytes key(16, 0x5a);
    EXPECT_NO_THROW(AesGcm(key, Kernel::Portable));
    EXPECT_NO_THROW(Sha256(Kernel::Portable));
    if (missingGcmFlag()) {
        EXPECT_THROW(AesGcm(key, Kernel::X86), std::invalid_argument);
    } else {
        EXPECT_NO_THROW(AesGcm(key, Kernel::X86));
    }
    if (missingGcmVaesFlag()) {
        EXPECT_THROW(AesGcm(key, Kernel::Vaes), std::invalid_argument);
    } else {
        EXPECT_NO_THROW(AesGcm(key, Kernel::Vaes));
    }
    if (missingSha256Flag()) {
        EXPECT_THROW(Sha256(Kernel::X86), std::invalid_argument);
    } else {
        EXPECT_NO_THROW(Sha256(Kernel::X86));
    }
    // SHA-256 has no wide kernel, whatever the host.
    EXPECT_THROW(Sha256(Kernel::Vaes), std::invalid_argument);
}

// --- SHA-256 (FIPS 180-4 examples) -------------------------------------

Sha256Digest
hashOn(Kernel kernel, ByteView data)
{
    Sha256 ctx(kernel);
    ctx.update(data);
    return ctx.finish();
}

/** `msg` cut into 1-4 consecutive pieces of random sizes. */
std::vector<ByteView>
randomPieces(ByteView msg, Rng& rng)
{
    std::vector<ByteView> pieces;
    std::size_t offset = 0;
    for (std::uint64_t cuts = rng.nextBelow(4); cuts > 0; --cuts) {
        std::size_t take = rng.nextBelow(msg.size() - offset + 1);
        pieces.push_back(msg.subspan(offset, take));
        offset += take;
    }
    pieces.push_back(msg.subspan(offset));
    return pieces;
}

TEST_ON_EACH_KERNEL(Sha256, EmptyString)
{
    EXPECT_EQ(digestHex(hashOn(kernel, {})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST_ON_EACH_KERNEL(Sha256, Abc)
{
    Bytes msg = bytesOf("abc");
    EXPECT_EQ(digestHex(hashOn(kernel, msg)),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_ON_EACH_KERNEL(Sha256, TwoBlockMessage)
{
    Bytes msg = bytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
    EXPECT_EQ(digestHex(hashOn(kernel, msg)),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_ON_EACH_KERNEL(Sha256, MillionAs)
{
    Sha256 ctx(kernel);
    Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) ctx.update(chunk);
    EXPECT_EQ(digestHex(ctx.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_ON_EACH_KERNEL(Sha256, IncrementalMatchesOneShot)
{
    Bytes msg = bytesOf("the quick brown fox jumps over the lazy dog!");
    for (std::size_t split = 0; split <= msg.size(); ++split) {
        Sha256 ctx(kernel);
        ctx.update(ByteView(msg.data(), split));
        ctx.update(ByteView(msg.data() + split, msg.size() - split));
        EXPECT_EQ(ctx.finish(), hashOn(kernel, msg)) << "split=" << split;
    }
}

// Pins one digest over the digests of a seeded corpus: every length from 0
// to 299 (each block tail and both padding shapes), then random lengths up
// to 9,000 bytes, each message fed in 1-4 updates of random size. Recorded
// when the portable kernel was the only one.
TEST_ON_EACH_KERNEL(Sha256, SeededGoldenCorpus)
{
    Rng rng(0x73686132);
    Sha256 corpus(kernel);
    for (int i = 0; i < 1000; ++i) {
        Bytes msg = rng.bytes(i < 300 ? i : rng.nextBelow(9001));
        Sha256 ctx(kernel);
        for (ByteView piece : randomPieces(msg, rng)) ctx.update(piece);
        corpus.update(toBytes(ctx.finish()));
    }
    EXPECT_EQ(digestHex(corpus.finish()),
              "8564a170b53e26aa32fe89191954e208477e7eced32fa01ffd66b1a4066341f0");
}

// Seeded differential of the x86 kernel against the portable reference:
// messages of 0-9,000 bytes, each fed in 1-4 updates of random size, so
// buffered partial blocks and bulk whole-block runs interleave.
TEST(Sha256, KernelsAgree)
{
    if (const char* flag = missingSha256Flag()) {
        GTEST_SKIP() << "the x86 kernel needs " << flag
                     << ", which this host lacks";
    }
    Rng rng(0x6b65726e);
    for (int i = 0; i < 4000; ++i) {
        SCOPED_TRACE(i);
        Bytes msg = rng.bytes(rng.nextBelow(9001));
        Sha256 portable(Kernel::Portable);
        Sha256 x86(Kernel::X86);
        for (ByteView piece : randomPieces(msg, rng)) {
            portable.update(piece);
            x86.update(piece);
        }
        ASSERT_EQ(digestHex(x86.finish()), digestHex(portable.finish()));
    }
}

// --- HMAC-SHA256 (RFC 4231) ---------------------------------------------

TEST(Hmac, Rfc4231Case1)
{
    Bytes key(20, 0x0b);
    Bytes data = bytesOf("Hi There");
    EXPECT_EQ(digestHex(hmacSha256(key, data)),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2)
{
    Bytes key = bytesOf("Jefe");
    Bytes data = bytesOf("what do ya want for nothing?");
    EXPECT_EQ(digestHex(hmacSha256(key, data)),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3LongKey)
{
    Bytes key(131, 0xaa);
    Bytes data = bytesOf("Test Using Larger Than Block-Size Key - Hash Key First");
    EXPECT_EQ(digestHex(hmacSha256(key, data)),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- AES (FIPS 197 appendix vectors) -------------------------------------

TEST(Aes, Fips197Aes128)
{
    Aes aes(fromHex("000102030405060708090a0b0c0d0e0f"));
    Bytes block = fromHex("00112233445566778899aabbccddeeff");
    aes.encryptBlock(block.data());
    EXPECT_EQ(toHex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197Aes256)
{
    Aes aes(fromHex(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
    Bytes block = fromHex("00112233445566778899aabbccddeeff");
    aes.encryptBlock(block.data());
    EXPECT_EQ(toHex(block), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes, RejectsBadKeySize)
{
    EXPECT_THROW(Aes(Bytes(17, 0)), std::invalid_argument);
    EXPECT_THROW(Aes(Bytes(0, 0)), std::invalid_argument);
}

TEST(AesCtr, RoundTripAllLengths)
{
    Aes aes(fromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    AesBlock iv{};
    for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 64u, 100u}) {
        Bytes plain(len);
        for (std::size_t i = 0; i < len; ++i) plain[i] = std::uint8_t(i);
        Bytes cipher(len);
        aesCtrXcrypt(aes, iv, plain, cipher.data());
        Bytes back(len);
        aesCtrXcrypt(aes, iv, cipher, back.data());
        EXPECT_EQ(back, plain) << "len=" << len;
        if (len >= 16) {
            EXPECT_NE(cipher, plain);
        }
    }
}

// --- AES-GCM (NIST GCM spec test cases) -----------------------------------

TEST_ON_EACH_KERNEL(AesGcm, NistCase3)
{
    AesGcm gcm(fromHex("feffe9928665731c6d6a8f9467308308"), kernel);
    Bytes iv = fromHex("cafebabefacedbaddecaf888");
    Bytes plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
    Bytes sealed = gcm.seal(iv, {}, plain);
    ASSERT_EQ(sealed.size(), plain.size() + kGcmTagSize);
    EXPECT_EQ(toHex(ByteView(sealed.data(), plain.size())),
              "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
              "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
    EXPECT_EQ(toHex(ByteView(sealed.data() + plain.size(), 16)),
              "4d5c2af327cd64a62cf35abd2ba6fab4");

    auto opened = gcm.open(iv, {}, sealed);
    ASSERT_TRUE(opened.isOk());
    EXPECT_EQ(opened.value(), plain);
}

TEST_ON_EACH_KERNEL(AesGcm, NistCase4WithAad)
{
    AesGcm gcm(fromHex("feffe9928665731c6d6a8f9467308308"), kernel);
    Bytes iv = fromHex("cafebabefacedbaddecaf888");
    Bytes plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
    Bytes aad = fromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    Bytes sealed = gcm.seal(iv, aad, plain);
    EXPECT_EQ(toHex(ByteView(sealed.data() + plain.size(), 16)),
              "5bc94fbc3221a5db94fae95ae7121a47");
    auto opened = gcm.open(iv, aad, sealed);
    ASSERT_TRUE(opened.isOk());
    EXPECT_EQ(opened.value(), plain);
}

TEST_ON_EACH_KERNEL(AesGcm, TamperDetected)
{
    AesGcm gcm(Bytes(16, 0x11), kernel);
    Bytes iv(12, 0x22);
    Bytes plain = bytesOf("attack at dawn");
    Bytes sealed = gcm.seal(iv, {}, plain);

    Bytes corruptBody = sealed;
    corruptBody[0] ^= 1;
    EXPECT_FALSE(gcm.open(iv, {}, corruptBody).isOk());

    Bytes corruptTag = sealed;
    corruptTag.back() ^= 1;
    EXPECT_FALSE(gcm.open(iv, {}, corruptTag).isOk());

    Bytes wrongAad = sealed;
    EXPECT_FALSE(gcm.open(iv, bytesOf("x"), wrongAad).isOk());
}

TEST_ON_EACH_KERNEL(AesGcm, EmptyPlaintext)
{
    AesGcm gcm(Bytes(16, 0), kernel);
    Bytes iv(12, 0);
    Bytes sealed = gcm.seal(iv, {}, {});
    EXPECT_EQ(sealed.size(), kGcmTagSize);
    EXPECT_TRUE(gcm.open(iv, {}, sealed).isOk());
}

// NIST GCM spec test cases 1, 2 (AES-128) and 13, 14, 16 (AES-256).
TEST_ON_EACH_KERNEL(AesGcm, NistSpecVectors)
{
    struct Case {
        const char* name;
        const char* key;
        const char* iv;
        const char* aad;
        const char* plain;
        const char* cipher;
        const char* tag;
    };
    const std::string zero128(32, '0');
    const std::string zero256(64, '0');
    const std::string zeroIv(24, '0');
    const Case cases[] = {
        {"TC1", zero128.c_str(), zeroIv.c_str(), "", "", "",
         "58e2fccefa7e3061367f1d57a4e7455a"},
        {"TC2", zero128.c_str(), zeroIv.c_str(), "", zero128.c_str(),
         "0388dace60b6a392f328c2b971b2fe78",
         "ab6e47d42cec13bdf53a67b21257bddf"},
        {"TC13", zero256.c_str(), zeroIv.c_str(), "", "", "",
         "530f8afbc74536b9a963b4f1c4cb738b"},
        {"TC14", zero256.c_str(), zeroIv.c_str(), "", zero128.c_str(),
         "cea7403d4d606b6e074ec5d3baf39d18",
         "d0d1c8a799996bf0265b98b5d48ab919"},
        {"TC16",
         "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
         "cafebabefacedbaddecaf888", "feedfacedeadbeeffeedfacedeadbeefabaddad2",
         "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
         "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
         "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
         "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
         "76fc6ece0f4e1768cddf8853bb2d551b"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        AesGcm gcm(fromHex(c.key), kernel);
        Bytes iv = fromHex(c.iv);
        Bytes aad = fromHex(c.aad);
        Bytes plain = fromHex(c.plain);
        Bytes sealed = gcm.seal(iv, aad, plain);
        ASSERT_EQ(sealed.size(), plain.size() + kGcmTagSize);
        EXPECT_EQ(toHex(ByteView(sealed.data(), plain.size())), c.cipher);
        EXPECT_EQ(toHex(ByteView(sealed.data() + plain.size(), kGcmTagSize)),
                  c.tag);
        auto opened = gcm.open(iv, aad, sealed);
        ASSERT_TRUE(opened.isOk());
        EXPECT_EQ(opened.value(), plain);
    }
}

// Pins the exact bytes of seal() over a seeded corpus of key sizes, AAD and
// plaintext lengths (every block-tail shape, plus a full EPC page every 50th
// case), so any rewrite of the AES or GHASH kernels must reproduce them.
TEST_ON_EACH_KERNEL(AesGcm, SeededGoldenCorpus)
{
    Rng rng(0x6c6f6e67);
    Sha256 corpus(Kernel::Portable);
    for (int i = 0; i < 3000; ++i) {
        SCOPED_TRACE(i);
        AesGcm gcm(rng.bytes(rng.nextBelow(2) ? 32 : 16), kernel);
        Bytes iv = rng.bytes(kGcmIvSize);
        Bytes aad = rng.bytes(rng.nextBelow(70));
        Bytes plain = rng.bytes(i % 50 == 49 ? 4096 : rng.nextBelow(601));

        Bytes sealed = gcm.seal(iv, aad, plain);
        corpus.update(sealed);
        auto opened = gcm.open(iv, aad, sealed);
        ASSERT_TRUE(opened.isOk());
        ASSERT_EQ(opened.value(), plain);

        Bytes tampered = sealed;
        std::size_t bit = rng.nextBelow(tampered.size() * 8);
        tampered[bit / 8] ^= std::uint8_t(1u << (bit % 8));
        ASSERT_FALSE(gcm.open(iv, aad, tampered).isOk());
    }
    EXPECT_EQ(digestHex(corpus.finish()),
              "ec628633a63ac1429e6de59284235e83ad8a9192f9bd81f00cedf2c571341c1c");
}

// Seeded differential of the x86 and wide kernels against the portable
// reference: both key sizes, plaintexts of 0-9,000 bytes (every CTR tail
// after the 8- and 16-block strides, every GHASH tail after the 4- and
// 16-block ones), AAD of 0-79 bytes, and a one-bit tamper each kernel
// must refuse. A host without the wide kernel compares the x86 one alone.
TEST(AesGcm, KernelsAgree)
{
    if (const char* flag = missingGcmFlag()) {
        GTEST_SKIP() << "the x86 kernel needs " << flag
                     << ", which this host lacks";
    }
    Rng rng(0x78383667);
    for (int i = 0; i < 4000; ++i) {
        SCOPED_TRACE(i);
        Bytes key = rng.bytes(rng.nextBelow(2) ? 32 : 16);
        AesGcm portable(key, Kernel::Portable);
        Bytes iv = rng.bytes(kGcmIvSize);
        Bytes aad = rng.bytes(rng.nextBelow(80));
        Bytes plain = rng.bytes(rng.nextBelow(9001));
        Bytes sealed = portable.seal(iv, aad, plain);
        std::size_t bit = rng.nextBelow(sealed.size() * 8);
        Bytes tampered = sealed;
        tampered[bit / 8] ^= std::uint8_t(1u << (bit % 8));

        for (Kernel kernel : hostGcmKernels()) {
            SCOPED_TRACE(int(kernel));
            AesGcm gcm(key, kernel);
            ASSERT_EQ(gcm.seal(iv, aad, plain), sealed);
            auto opened = gcm.open(iv, aad, sealed);
            ASSERT_TRUE(opened.isOk());
            ASSERT_EQ(opened.value(), plain);
            ASSERT_FALSE(gcm.open(iv, aad, tampered).isOk());
        }
    }
}

// The lengths at which a kernel switches loops, each one byte short and
// over: the 16-byte block, the x86 kernel's 128-byte CTR stride, the wide
// kernel's 256-byte CTR and 16-block GHASH strides, and an EPC page; then
// two pages. The 256- and 257-byte AAD run the wide GHASH over AAD too.
// On both key sizes, every kernel the host runs must seal the portable
// kernel's bytes, open them and refuse a one-bit tamper.
TEST(AesGcm, KernelsAgreeAtStrideBoundaries)
{
    const std::size_t plainLens[] = {0,   1,   15,   16,   17,   127,  128, 129,
                                     255, 256, 257, 4095, 4096, 4097, 8192};
    const std::size_t aadLens[] = {0, 16, 255, 256, 257};
    Rng rng(0x626f756e);
    for (std::size_t keyLen : {16, 32}) {
        for (std::size_t plainLen : plainLens) {
            for (std::size_t aadLen : aadLens) {
                SCOPED_TRACE(testing::Message() << "key " << keyLen << " plain "
                                                << plainLen << " aad " << aadLen);
                Bytes key = rng.bytes(keyLen);
                Bytes iv = rng.bytes(kGcmIvSize);
                Bytes aad = rng.bytes(aadLen);
                Bytes plain = rng.bytes(plainLen);
                Bytes sealed = AesGcm(key, Kernel::Portable).seal(iv, aad, plain);
                Bytes tampered = sealed;
                std::size_t bit = rng.nextBelow(sealed.size() * 8);
                tampered[bit / 8] ^= std::uint8_t(1u << (bit % 8));

                std::vector<Kernel> kernels = hostGcmKernels();
                kernels.insert(kernels.begin(), Kernel::Portable);
                for (Kernel kernel : kernels) {
                    SCOPED_TRACE(int(kernel));
                    AesGcm gcm(key, kernel);
                    ASSERT_EQ(gcm.seal(iv, aad, plain), sealed);
                    auto opened = gcm.open(iv, aad, sealed);
                    ASSERT_TRUE(opened.isOk());
                    ASSERT_EQ(opened.value(), plain);
                    ASSERT_FALSE(gcm.open(iv, aad, tampered).isOk());
                }
            }
        }
    }
}

// --- BigUint ---------------------------------------------------------------

TEST(BigUint, BasicArithmetic)
{
    BigUint a(1000000007ull), b(998244353ull);
    EXPECT_EQ((a + b).toHex(), BigUint(1998244360ull).toHex());
    EXPECT_EQ((a - b).toHex(), BigUint(1755654ull).toHex());
    EXPECT_EQ((a * b).toHex(), BigUint(998244359987710471ull).toHex());
    EXPECT_EQ((a % b).toHex(), BigUint(1755654ull).toHex());
    EXPECT_EQ((a / b).toHex(), BigUint(1).toHex());
}

TEST(BigUint, ByteRoundTrip)
{
    Bytes wire = fromHex("0123456789abcdef00fedcba98");
    BigUint v = BigUint::fromBytesBe(wire);
    EXPECT_EQ(toHex(v.toBytesBe()), "0123456789abcdef00fedcba98");
    EXPECT_EQ(v.toBytesBe(16).size(), 16u);
}

TEST(BigUint, ShiftsAndBits)
{
    BigUint one(1);
    BigUint big = one << 100;
    EXPECT_EQ(big.bitLength(), 101u);
    EXPECT_TRUE(big.bit(100));
    EXPECT_FALSE(big.bit(99));
    EXPECT_EQ(((big >> 100)).toHex(), one.toHex());
}

TEST(BigUint, DivModProperty)
{
    Rng rng(99);
    for (int i = 0; i < 30; ++i) {
        BigUint a = BigUint::randomBits(rng, 192);
        BigUint b = BigUint::randomBits(rng, 80);
        BigUint q = a / b;
        BigUint r = a % b;
        EXPECT_TRUE(r < b);
        EXPECT_EQ((q * b + r).toHex(), a.toHex());
    }
}

TEST(BigUint, PowModSmall)
{
    // 3^200 mod 1000000007 computed independently.
    BigUint base(3), mod(1000000007ull);
    BigUint e(200);
    BigUint r = base.powMod(e, mod);
    // Verify against iterative computation.
    std::uint64_t expect = 1;
    for (int i = 0; i < 200; ++i) expect = expect * 3 % 1000000007ull;
    EXPECT_EQ(r.toHex(), BigUint(expect).toHex());
}

// Binary square-and-multiply over mulMod (schoolbook product, Knuth
// division): a reference that shares no code with powMod's Montgomery
// kernel.
BigUint
referencePowMod(const BigUint& base, const BigUint& e, const BigUint& m)
{
    BigUint b = base % m;
    BigUint result = BigUint(1) % m;
    for (std::size_t i = e.bitLength(); i-- > 0;) {
        result = result.mulMod(result, m);
        if (e.bit(i)) result = result.mulMod(b, m);
    }
    return result;
}

TEST(BigUint, PowModMatchesSquareAndMultiply)
{
    Rng rng(0x90d);
    // Odd 32-bit limb counts (33, 65, 96, ... bits) leave the top 64-bit
    // word half full.
    const std::size_t widths[] = {1,   2,   31,  32,   33,   63,   64,
                                  65,  96,  127, 128,  129,  255,  256,
                                  257, 511, 512, 544,  1023, 1024, 1056,
                                  1536, 2047, 2048, 3072, 4096};
    for (std::size_t bits : widths) {
        SCOPED_TRACE(bits);
        BigUint allOnes = (BigUint(1) << bits) - BigUint(1);
        for (int round = 0; round < 4; ++round) {
            BigUint m = round == 0 ? allOnes : BigUint::randomBits(rng, bits);
            if (!m.isOdd()) m = m + BigUint(1);
            // Bases at and above m, plus m - 1 and the all-ones words.
            BigUint base = round == 1   ? m
                           : round == 2 ? m - BigUint(1)
                           : round == 3 ? allOnes
                                        : BigUint::randomBits(rng, bits + 40);
            std::size_t eBits = 1 + rng.nextBelow(std::min<std::size_t>(
                                        bits + 64, 320));
            // 3 and 65537 build a two-entry window table, 0x20102 a
            // three-entry one (its largest 4-bit digit is 2).
            for (const BigUint& e :
                 {BigUint(), BigUint(1), BigUint(3), BigUint(65537),
                  BigUint(0x20102), BigUint::randomBits(rng, eBits)}) {
                EXPECT_EQ(base.powMod(e, m).toHex(),
                          referencePowMod(base, e, m).toHex())
                    << "m=" << m.toHex() << " base=" << base.toHex()
                    << " e=" << e.toHex();
            }
        }
    }
    EXPECT_TRUE(BigUint(7).powMod(BigUint(5), BigUint(1)).isZero());
    EXPECT_THROW(BigUint(3).powMod(BigUint(5), BigUint(10)),
                 std::invalid_argument);
    EXPECT_THROW(BigUint(3).powMod(BigUint(5), BigUint(1) << 1024),
                 std::invalid_argument);
    EXPECT_THROW(BigUint(3).powMod(BigUint(5), BigUint()),
                 std::invalid_argument);
}

TEST(BigUint, InvModProperty)
{
    Rng rng(4);
    BigUint mod = BigUint::generatePrime(rng, 64);
    for (int i = 0; i < 10; ++i) {
        BigUint a = BigUint::randomBits(rng, 60);
        BigUint inv = a.invMod(mod);
        EXPECT_EQ(a.mulMod(inv, mod).toHex(), BigUint(1).toHex());
    }
}

TEST(BigUint, PrimalityKnownValues)
{
    Rng rng(8);
    EXPECT_TRUE(BigUint(2).isProbablyPrime(rng));
    EXPECT_TRUE(BigUint(65537).isProbablyPrime(rng));
    EXPECT_TRUE(BigUint(1000000007ull).isProbablyPrime(rng));
    EXPECT_FALSE(BigUint(1).isProbablyPrime(rng));
    EXPECT_FALSE(BigUint(65536).isProbablyPrime(rng));
    EXPECT_FALSE(BigUint(1000000008ull).isProbablyPrime(rng));
    // Carmichael number 561 = 3*11*17 must be rejected.
    EXPECT_FALSE(BigUint(561).isProbablyPrime(rng));
}

// --- RSA ---------------------------------------------------------------------

class RsaFixture : public ::testing::Test {
  protected:
    static void SetUpTestSuite()
    {
        Rng rng(2024);
        key_ = new RsaKeyPair(RsaKeyPair::generate(rng, 512));
    }
    static void TearDownTestSuite()
    {
        delete key_;
        key_ = nullptr;
    }
    static RsaKeyPair* key_;
};

RsaKeyPair* RsaFixture::key_ = nullptr;

TEST_F(RsaFixture, SignVerifyRoundTrip)
{
    Bytes msg = bytesOf("measurement of an enclave");
    Bytes sig = rsaSign(*key_, msg);
    EXPECT_EQ(sig.size(), key_->pub.modulusBytes());
    EXPECT_TRUE(rsaVerify(key_->pub, msg, sig));
}

TEST_F(RsaFixture, RejectsWrongMessage)
{
    Bytes sig = rsaSign(*key_, bytesOf("hello"));
    EXPECT_FALSE(rsaVerify(key_->pub, bytesOf("hellx"), sig));
}

TEST_F(RsaFixture, RejectsTamperedSignature)
{
    Bytes msg = bytesOf("hello");
    Bytes sig = rsaSign(*key_, msg);
    sig[sig.size() / 2] ^= 0x40;
    EXPECT_FALSE(rsaVerify(key_->pub, msg, sig));
}

TEST_F(RsaFixture, RejectsWrongKey)
{
    Rng rng(77);
    RsaKeyPair other = RsaKeyPair::generate(rng, 512);
    Bytes msg = bytesOf("hello");
    Bytes sig = rsaSign(*key_, msg);
    EXPECT_FALSE(rsaVerify(other.pub, msg, sig));
}

TEST_F(RsaFixture, SignerMeasurementStable)
{
    auto m1 = key_->pub.signerMeasurement();
    auto m2 = key_->pub.signerMeasurement();
    EXPECT_EQ(m1, m2);
    Rng rng(78);
    RsaKeyPair other = RsaKeyPair::generate(rng, 512);
    EXPECT_NE(toHex(ByteView(m1.data(), 32)),
              toHex(ByteView(other.pub.signerMeasurement().data(), 32)));
}

struct CorpusKey {
    std::uint64_t seed;
    std::size_t bits;
    int messages;
};

// 0xDEFA017 is core::defaultAuthorKey, 0xA07707/0xB18818 the test
// harness authors, 2024/77/78 the fixture keys above (77 and 78 give
// 511-bit moduli).
constexpr CorpusKey kCorpusKeys[] = {
    {0xDEFA017, 1024, 200}, {0xA07707, 512, 200}, {0xB18818, 512, 200},
    {2024, 512, 200},       {77, 512, 200},       {78, 512, 200},
    {0x204d, 2048, 20},
};

// Pins the exact bytes of key generation and rsaSign() over seeded keys of
// every size the tree uses and a seeded corpus of 0-700 B messages, so any
// rewrite of the bignum or RSA kernels must reproduce every modulus (hence
// every MRSIGNER) and every SIGSTRUCT signature.
TEST(Rsa, SeededGoldenCorpus)
{
    Rng msgRng(0x516e);
    Sha256 corpus;
    for (const CorpusKey& c : kCorpusKeys) {
        SCOPED_TRACE(c.seed);
        Rng keyRng(c.seed);
        RsaKeyPair key = RsaKeyPair::generate(keyRng, c.bits);
        corpus.update(key.pub.n.toBytesBe());
        if (c.seed == 0xDEFA017) {
            EXPECT_EQ(digestHex(key.pub.signerMeasurement()),
                      "22ff2b2974bb895e84edad8fecc9fb44"
                      "2df296037738514166b2bc843512f4da");
        }
        for (int i = 0; i < c.messages; ++i) {
            Bytes msg = msgRng.bytes(msgRng.nextBelow(701));
            Bytes sig = rsaSign(key, msg);
            ASSERT_TRUE(rsaVerify(key.pub, msg, sig));
            corpus.update(sig);
        }
    }
    EXPECT_EQ(digestHex(corpus.finish()),
              "520aed5ec38b57e8bb35db617fc6052bc579452b04160ed33d377fb575fccc50");
}

// Garner's recombination reduces s2 mod p before subtracting it from s1:
// a no-op when p > q, a real reduction when q > p. The corpus above must
// hold keys of both orders so both run.
TEST(Rsa, CorpusCoversBothPrimeOrders)
{
    int pAbove = 0;
    int pBelow = 0;
    for (const CorpusKey& c : kCorpusKeys) {
        SCOPED_TRACE(c.seed);
        Rng keyRng(c.seed);
        RsaKeyPair key = RsaKeyPair::generate(keyRng, c.bits);
        const BigUint one(1);
        EXPECT_TRUE(key.p * key.q == key.pub.n);
        EXPECT_TRUE(key.dp.mulMod(key.pub.e, key.p - one) == one);
        EXPECT_TRUE(key.dq.mulMod(key.pub.e, key.q - one) == one);
        EXPECT_TRUE(key.qInv.mulMod(key.q, key.p) == one);
        ++(key.p > key.q ? pAbove : pBelow);
        if (c.seed == 0xA07707 || c.seed == 77) {
            EXPECT_TRUE(key.p > key.q);
        }
    }
    EXPECT_GT(pAbove, 0);
    EXPECT_GT(pBelow, 0);
}

TEST(Rsa, SignVerifyTamperAt1024And3072Bits)
{
    const CorpusKey keys[] = {{1024, 1024, 4}, {3, 3072, 4}};
    for (const CorpusKey& c : keys) {
        SCOPED_TRACE(c.bits);
        Rng rng(c.seed);
        RsaKeyPair key = RsaKeyPair::generate(rng, c.bits);
        EXPECT_EQ(key.pub.n.bitLength(), c.bits);
        for (int i = 0; i < c.messages; ++i) {
            Bytes msg = rng.bytes(rng.nextBelow(300));
            Bytes sig = rsaSign(key, msg);
            ASSERT_EQ(sig.size(), key.pub.modulusBytes());
            EXPECT_TRUE(rsaVerify(key.pub, msg, sig));
            std::size_t bit = rng.nextBelow(sig.size() * 8);
            sig[bit / 8] ^= std::uint8_t(1u << (bit % 8));
            EXPECT_FALSE(rsaVerify(key.pub, msg, sig));
        }
    }
}

// --- KDF ----------------------------------------------------------------------

TEST(Kdf, LabelsSeparateKeys)
{
    Bytes root(32, 0x5a);
    Bytes ctx = bytesOf("ctx");
    auto a = deriveKey256(root, "report-key", ctx);
    auto b = deriveKey256(root, "seal-key", ctx);
    EXPECT_NE(digestHex(a), digestHex(b));
}

TEST(Kdf, ContextSeparatesKeys)
{
    Bytes root(32, 0x5a);
    auto a = deriveKey256(root, "report-key", bytesOf("enclave-a"));
    auto b = deriveKey256(root, "report-key", bytesOf("enclave-b"));
    EXPECT_NE(digestHex(a), digestHex(b));
}

TEST(Kdf, Deterministic)
{
    Bytes root(32, 1);
    auto a = deriveKey128(root, "x", bytesOf("y"));
    auto b = deriveKey128(root, "x", bytesOf("y"));
    EXPECT_EQ(toHex(ByteView(a.data(), 16)), toHex(ByteView(b.data(), 16)));
}

}  // namespace
}  // namespace nesgx::crypto
