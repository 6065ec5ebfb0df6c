/** Tests for the support substrate: bytes, rng, status. */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "support/bytes.h"
#include "support/rng.h"
#include "support/status.h"

namespace nesgx {
namespace {

TEST(Bytes, HexRoundTrip)
{
    Bytes data = {0x00, 0x01, 0xab, 0xff};
    EXPECT_EQ(toHex(data), "0001abff");
    EXPECT_EQ(fromHex("0001abff"), data);
    EXPECT_EQ(fromHex("0001ABFF"), data);
}

TEST(Bytes, HexRejectsGarbage)
{
    EXPECT_THROW(fromHex("abc"), std::invalid_argument);
    EXPECT_THROW(fromHex("zz"), std::invalid_argument);
}

TEST(Bytes, ConstantTimeEqual)
{
    Bytes a = {1, 2, 3};
    Bytes b = {1, 2, 3};
    Bytes c = {1, 2, 4};
    Bytes d = {1, 2};
    EXPECT_TRUE(constantTimeEqual(a, b));
    EXPECT_FALSE(constantTimeEqual(a, c));
    EXPECT_FALSE(constantTimeEqual(a, d));
}

TEST(Bytes, EndianHelpers)
{
    std::uint8_t buf[8];
    storeLe64(buf, 0x0102030405060708ull);
    EXPECT_EQ(buf[0], 0x08);
    EXPECT_EQ(loadLe64(buf), 0x0102030405060708ull);
    storeBe64(buf, 0x0102030405060708ull);
    EXPECT_EQ(buf[0], 0x01);
    EXPECT_EQ(loadBe64(buf), 0x0102030405060708ull);
    storeBe32(buf, 0xdeadbeef);
    EXPECT_EQ(loadBe32(buf), 0xdeadbeefu);
    storeLe32(buf, 0xdeadbeef);
    EXPECT_EQ(loadLe32(buf), 0xdeadbeefu);
}

TEST(Rng, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool anyDifferent = false;
    for (int i = 0; i < 10; ++i) {
        if (a.next() != b.next()) anyDifferent = true;
    }
    EXPECT_TRUE(anyDifferent);
}

TEST(Rng, BoundedValues)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, FillCoversAllLengths)
{
    Rng rng(5);
    for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
        Bytes b = rng.bytes(len);
        EXPECT_EQ(b.size(), len);
    }
}

TEST(Status, OkAndError)
{
    Status ok;
    EXPECT_TRUE(ok.isOk());
    EXPECT_TRUE(bool(ok));
    Status pf(Err::PageFault);
    EXPECT_FALSE(pf.isOk());
    EXPECT_STREQ(pf.name(), "PageFault");
    EXPECT_THROW(pf.orThrow("ctx"), NesgxError);
    EXPECT_NO_THROW(ok.orThrow("ctx"));
}

TEST(Status, ResultCarriesValueOrFault)
{
    Result<int> good(42);
    EXPECT_TRUE(good.isOk());
    EXPECT_EQ(good.value(), 42);
    Result<int> bad(Err::OutOfMemory);
    EXPECT_FALSE(bad.isOk());
    EXPECT_EQ(bad.code(), Err::OutOfMemory);
    EXPECT_THROW(bad.orThrow("ctx"), NesgxError);
}

TEST(Status, ErrNamesAreUnique)
{
    EXPECT_STREQ(errName(Err::Ok), "Ok");
    EXPECT_STREQ(errName(Err::AssociationRejected), "AssociationRejected");
    EXPECT_STREQ(errName(Err::TrackingIncomplete), "TrackingIncomplete");
}

TEST(Status, EveryErrHasADistinctRealName)
{
    // Exhaustive round trip: every enumerator must carry its own name —
    // a forgotten switch case would fall through to the placeholder and
    // collide here.
    std::set<std::string> seen;
    for (std::size_t i = 0; i < kErrCount; ++i) {
        const std::string name = errName(Err(i));
        EXPECT_NE(name, "") << "Err " << i;
        EXPECT_NE(name, "Unknown") << "Err " << i;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate errName: " << name;
    }
    // kErrCount follows the newest code; out-of-range values get the
    // placeholder, not garbage.
    EXPECT_STREQ(errName(Err(kErrCount - 1)), "EnclaveCrashed");
    EXPECT_STREQ(errName(Err(kErrCount)), "Unknown");
}

}  // namespace
}  // namespace nesgx
