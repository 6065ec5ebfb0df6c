/**
 * Enclave lifecycle tests: ECREATE/EADD/EEXTEND/EINIT/EREMOVE, signed
 * image loading, measurement binding, and NASSO association validation
 * (paper §IV-B, §IV-C, Fig. 4).
 */
#include <gtest/gtest.h>

#include "harness.h"

namespace nesgx::test {
namespace {

TEST(Lifecycle, LoadSignedEnclave)
{
    World world;
    auto spec = tinySpec("e1");
    auto image = sdk::buildImage(spec, authorKey());
    auto loaded = world.urts->load(image, spec.interface);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().name();
    sdk::LoadedEnclave* enclave = loaded.value();

    const sgx::Secs* secs = world.machine.secsAt(enclave->secsPage());
    ASSERT_NE(secs, nullptr);
    EXPECT_TRUE(secs->initialized);
    // Hardware-measured MRENCLAVE equals the toolchain prediction.
    EXPECT_EQ(secs->mrenclave, image->mrenclave);
    EXPECT_EQ(secs->mrsigner, image->mrsigner);

    // A second load on the same machine replays every page fold from the
    // EEXTEND memo and still measures the same MRENCLAVE.
    const std::uint64_t hitsBefore = world.machine.pageFoldHits();
    auto again = world.urts->load(image, spec.interface);
    ASSERT_TRUE(again.isOk()) << again.status().name();
    const sgx::Secs* secs2 = world.machine.secsAt(again.value()->secsPage());
    ASSERT_NE(secs2, nullptr);
    EXPECT_EQ(secs2->mrenclave, image->mrenclave);
    EXPECT_EQ(world.machine.pageFoldHits() - hitsBefore, image->pages.size());
}

TEST(Lifecycle, DifferentCodeDifferentMeasurement)
{
    auto aSpec = tinySpec("alpha");
    auto a = sdk::buildImage(aSpec, authorKey());
    auto bSpec = tinySpec("beta");
    auto b = sdk::buildImage(bSpec, authorKey());
    EXPECT_NE(a->mrenclave, b->mrenclave);
    EXPECT_EQ(a->mrsigner, b->mrsigner);  // same author
}

TEST(Lifecycle, PredictMeasurementMatchesBuild)
{
    auto spec = tinySpec("predictable");
    EXPECT_EQ(sdk::predictMeasurement(spec),
              sdk::buildImage(spec, authorKey())->mrenclave);
}

TEST(Lifecycle, EinitRejectsTamperedContent)
{
    World world;
    auto spec = tinySpec("tampered");
    auto genuine = sdk::buildImage(spec, authorKey());
    // The genuine image loads and unloads first, so the EEXTEND memo holds
    // the fold of every page the tampered copy measures after the same
    // prefix: only the byte compare tells the two apart.
    auto first = world.urts->load(genuine, spec.interface);
    ASSERT_TRUE(first.isOk()) << first.status().name();
    ASSERT_TRUE(world.urts->unload(first.value()).isOk());

    auto image = std::make_shared<sdk::SignedEnclave>(*genuine);
    // OS flips one byte of a code page before loading.
    image->pages[image->spec.tcsCount].content[0] ^= 0xff;
    auto loaded = world.urts->load(image, spec.interface);
    ASSERT_FALSE(loaded.isOk());
    EXPECT_EQ(loaded.code(), Err::InvalidMeasurement);
}

TEST(Lifecycle, EinitRejectsForgedSignature)
{
    World world;
    auto spec = tinySpec("forged");
    auto image = std::make_shared<sdk::SignedEnclave>(
        *sdk::buildImage(spec, authorKey()));
    image->sigstruct.signature[4] ^= 1;
    auto loaded = world.urts->load(image, spec.interface);
    ASSERT_FALSE(loaded.isOk());
    EXPECT_EQ(loaded.code(), Err::InvalidSignature);
}

TEST(Lifecycle, EinitRejectsResignedByOtherAuthor)
{
    World world;
    auto spec = tinySpec("resign");
    auto image = std::make_shared<sdk::SignedEnclave>(
        *sdk::buildImage(spec, authorKey()));
    // An attacker re-signs the (unmodified) body with their own key: the
    // signature verifies but MRSIGNER changes, which downstream
    // association checks must observe. Load succeeds...
    image->sigstruct.sign(otherAuthorKey());
    auto loaded = world.urts->load(image, spec.interface);
    ASSERT_TRUE(loaded.isOk());
    // ...but the hardware-recorded signer is the attacker, not the author.
    const sgx::Secs* secs =
        world.machine.secsAt(loaded.value()->secsPage());
    EXPECT_EQ(secs->mrsigner, otherAuthorKey().pub.signerMeasurement());
    EXPECT_NE(secs->mrsigner, authorKey().pub.signerMeasurement());
}

TEST(Lifecycle, EinitRejectsUnusableSignerModulus)
{
    World world;
    auto spec = tinySpec("signer-key");
    auto image = sdk::buildImage(spec, authorKey());
    // The signer key comes from the host-supplied SIGSTRUCT. A modulus the
    // RSA kernel cannot use (too narrow for PKCS#1, even, or zero) must
    // fail EINIT typed instead of throwing out of the leaf.
    struct Hostile {
        crypto::BigUint n;
        Bytes signature;
    };
    const Hostile keys[] = {
        {crypto::BigUint(0xc5), Bytes(1, 0)},
        {authorKey().pub.n + crypto::BigUint(1), image->sigstruct.signature},
        {crypto::BigUint(), Bytes{}},
    };
    for (const Hostile& h : keys) {
        SCOPED_TRACE(h.n.toHex());
        auto forged = std::make_shared<sdk::SignedEnclave>(*image);
        forged->sigstruct.signerKey.n = h.n;
        forged->sigstruct.signature = h.signature;
        auto loaded = world.urts->load(forged, spec.interface);
        ASSERT_FALSE(loaded.isOk());
        EXPECT_EQ(loaded.code(), Err::InvalidSignature);
    }
    // After the refusals the genuine image still loads.
    auto loaded = world.urts->load(image, spec.interface);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().name();
}

TEST(Lifecycle, EcreateRejectsMisalignedRange)
{
    World world;
    auto secs = world.kernel.createEnclave(world.pid, 0x1234, 1 << 20, 0);
    EXPECT_FALSE(secs.isOk());
    auto secs2 =
        world.kernel.createEnclave(world.pid, 0x10000, (1 << 20) + 5, 0);
    EXPECT_FALSE(secs2.isOk());
}

TEST(Lifecycle, EaddRejectsPageOutsideELRange)
{
    World world;
    auto secs = world.kernel
                    .createEnclave(world.pid, 0x7000'0000'0000ull, 1 << 20, 0)
                    .orThrow("create");
    Status st = world.kernel.addPage(secs, 0x7000'0010'0000ull,
                                     sgx::PageType::Reg,
                                     sgx::PagePerms::rw(), {});
    EXPECT_EQ(st.code(), Err::GeneralProtection);
}

TEST(Lifecycle, EaddRejectsAfterInit)
{
    World world;
    auto spec = tinySpec("sealed");
    auto image = sdk::buildImage(spec, authorKey());
    auto enclave = world.urts->load(image, spec.interface).orThrow("load");
    Status st = world.kernel.addPage(
        enclave->secsPage(), enclave->base() + enclave->size() - hw::kPageSize,
        sgx::PageType::Reg, sgx::PagePerms::rw(), {});
    EXPECT_EQ(st.code(), Err::GeneralProtection);
}

TEST(Lifecycle, EpcPagesAreSingleOwner)
{
    World world;
    auto spec = tinySpec("o1");
    auto enclave = world.urts->load(sdk::buildImage(spec, authorKey()),
                                    spec.interface)
                       .orThrow("load");
    const auto* rec = world.kernel.enclaveRecord(enclave->secsPage());
    ASSERT_NE(rec, nullptr);
    hw::Paddr somePage = rec->pages.begin()->second;
    // Adding the same physical page to another enclave must fail.
    auto secs2 = world.kernel
                     .createEnclave(world.pid, 0x6000'0000'0000ull, 1 << 20, 0)
                     .orThrow("create");
    Status st = world.machine.eadd(secs2, somePage, 0x6000'0000'0000ull,
                                   sgx::PageType::Reg, sgx::PagePerms::rw(),
                                   {});
    EXPECT_EQ(st.code(), Err::PageInUse);
}

TEST(Lifecycle, DestroyEnclaveFreesEpc)
{
    World world;
    std::size_t before = world.kernel.freeEpcPages();
    auto spec = tinySpec("shortlived");
    auto image = sdk::buildImage(spec, authorKey());
    auto enclave = world.urts->load(image, spec.interface).orThrow("load");
    EXPECT_LT(world.kernel.freeEpcPages(), before);
    ASSERT_TRUE(world.urts->unload(enclave).isOk());
    EXPECT_EQ(world.kernel.freeEpcPages(), before);
}

// --- NASSO association (paper Fig. 4) ------------------------------------

TEST(Nasso, AssociatesValidatedPair)
{
    World world;
    NestedPair pair =
        loadNestedPair(world, tinySpec("outer"), tinySpec("inner"));
    const sgx::Secs* inner = world.machine.secsAt(pair.inner->secsPage());
    const sgx::Secs* outer = world.machine.secsAt(pair.outer->secsPage());
    EXPECT_EQ(inner->outerEid(), pair.outer->secsPage());
    ASSERT_EQ(outer->innerEids.size(), 1u);
    EXPECT_EQ(outer->innerEids[0], pair.inner->secsPage());
}

TEST(Nasso, RejectsUnlistedInner)
{
    World world;
    // Outer allows nothing; the inner still expects the outer.
    auto outerSpec = tinySpec("outer-strict");
    auto innerSpec = tinySpec("inner-unwanted");
    innerSpec.expectedOuter = sgx::PeerExpectation{};
    innerSpec.expectedOuter->mrenclave = sdk::predictMeasurement(outerSpec);

    auto outerImage = sdk::buildImage(outerSpec, authorKey());
    auto innerImage = sdk::buildImage(innerSpec, authorKey());
    auto outer = world.urts->load(outerImage,
                                  outerSpec.interface).orThrow("outer");
    auto inner = world.urts->load(innerImage,
                                  innerSpec.interface).orThrow("inner");

    Status st = world.urts->associate(inner, outer);
    EXPECT_EQ(st.code(), Err::AssociationRejected);
}

TEST(Nasso, RejectsWrongOuterExpectation)
{
    World world;
    auto outerSpec = tinySpec("outer-real");
    auto innerSpec = tinySpec("inner-mismatched");
    // The inner expects a *different* outer.
    innerSpec.expectedOuter = sgx::PeerExpectation{};
    innerSpec.expectedOuter->mrenclave =
        sdk::predictMeasurement(tinySpec("outer-other"));
    auto innerImage = sdk::buildImage(innerSpec, authorKey());

    sgx::PeerExpectation allow;
    allow.mrenclave = innerImage->mrenclave;
    outerSpec.allowedInners.push_back(allow);
    auto outerImage = sdk::buildImage(outerSpec, authorKey());

    auto outer = world.urts->load(outerImage,
                                  outerSpec.interface).orThrow("outer");
    auto inner = world.urts->load(innerImage,
                                  innerSpec.interface).orThrow("inner");
    EXPECT_EQ(world.urts->associate(inner, outer).code(),
              Err::AssociationRejected);
}

TEST(Nasso, AllowsMatchBySigner)
{
    World world;
    auto outerSpec = tinySpec("outer-signer");
    auto innerSpec = tinySpec("inner-signer");
    innerSpec.expectedOuter = expectSigner(authorKey());
    auto innerImage = sdk::buildImage(innerSpec, authorKey());
    outerSpec.allowedInners.push_back(expectSigner(authorKey()));
    auto outerImage = sdk::buildImage(outerSpec, authorKey());

    auto outer = world.urts->load(outerImage,
                                  outerSpec.interface).orThrow("outer");
    auto inner = world.urts->load(innerImage,
                                  innerSpec.interface).orThrow("inner");
    EXPECT_TRUE(world.urts->associate(inner, outer).isOk());
}

TEST(Nasso, RejectsWrongSigner)
{
    World world;
    auto outerSpec = tinySpec("outer-ws");
    auto innerSpec = tinySpec("inner-ws");
    innerSpec.expectedOuter = expectSigner(authorKey());
    // Inner is signed by a different author than the outer allows.
    auto innerImage = sdk::buildImage(innerSpec, otherAuthorKey());
    outerSpec.allowedInners.push_back(expectSigner(authorKey()));
    auto outerImage = sdk::buildImage(outerSpec, authorKey());

    auto outer = world.urts->load(outerImage,
                                  outerSpec.interface).orThrow("outer");
    auto inner = world.urts->load(innerImage,
                                  innerSpec.interface).orThrow("inner");
    EXPECT_EQ(world.urts->associate(inner, outer).code(),
              Err::AssociationRejected);
}

TEST(Nasso, SingleOuterPerInner)
{
    World world;
    NestedPair pair =
        loadNestedPair(world, tinySpec("outer-a"), tinySpec("inner-a"));
    // A second association for the same inner must fail (§IV-A).
    auto outer2Spec = tinySpec("outer-b");
    outer2Spec.allowedInners.push_back(expectEnclave(*pair.innerImage));
    auto outer2Image = sdk::buildImage(outer2Spec, authorKey());
    auto outer2 = world.urts->load(outer2Image,
                                   outer2Spec.interface).orThrow("outer2");
    EXPECT_EQ(world.urts->associate(pair.inner, outer2).code(),
              Err::GeneralProtection);
}

TEST(Nasso, MultipleInnersShareOneOuter)
{
    World world;
    auto outerSpec = tinySpec("outer-multi");
    outerSpec.allowedInners.push_back(expectSigner(authorKey()));
    auto i1Spec = tinySpec("inner-1");
    auto i2Spec = tinySpec("inner-2");
    i1Spec.expectedOuter = expectSigner(authorKey());
    i2Spec.expectedOuter = expectSigner(authorKey());

    auto outer = world.urts->load(sdk::buildImage(outerSpec, authorKey()),
                                  outerSpec.interface)
                     .orThrow("outer");
    auto i1 =
        world.urts->load(sdk::buildImage(i1Spec, authorKey()),
                         i1Spec.interface).orThrow("i1");
    auto i2 =
        world.urts->load(sdk::buildImage(i2Spec, authorKey()),
                         i2Spec.interface).orThrow("i2");
    ASSERT_TRUE(world.urts->associate(i1, outer).isOk());
    ASSERT_TRUE(world.urts->associate(i2, outer).isOk());

    const sgx::Secs* secs = world.machine.secsAt(outer->secsPage());
    EXPECT_EQ(secs->innerEids.size(), 2u);
}

TEST(Nasso, RejectsAssociationCycle)
{
    World world;
    // a nests in b; then b must not nest in a.
    auto aSpec = tinySpec("cycle-a");
    auto bSpec = tinySpec("cycle-b");
    aSpec.expectedOuter = expectSigner(authorKey());
    aSpec.allowedInners.push_back(expectSigner(authorKey()));
    bSpec.expectedOuter = expectSigner(authorKey());
    bSpec.allowedInners.push_back(expectSigner(authorKey()));

    auto a =
        world.urts->load(sdk::buildImage(aSpec, authorKey()),
                         aSpec.interface).orThrow("a");
    auto b =
        world.urts->load(sdk::buildImage(bSpec, authorKey()),
                         bSpec.interface).orThrow("b");
    ASSERT_TRUE(world.urts->associate(a, b).isOk());
    EXPECT_EQ(world.urts->associate(b, a).code(), Err::GeneralProtection);
}

TEST(Nasso, RejectsUninitializedEnclaves)
{
    World world;
    auto secs1 = world.kernel
                     .createEnclave(world.pid, 0x7000'0000'0000ull, 1 << 20, 0)
                     .orThrow("c1");
    auto secs2 = world.kernel
                     .createEnclave(world.pid, 0x7100'0000'0000ull, 1 << 20, 0)
                     .orThrow("c2");
    EXPECT_EQ(world.machine.nasso(secs1, secs2).code(),
              Err::GeneralProtection);
}

TEST(Nasso, RejectsSelfAssociation)
{
    World world;
    auto spec = tinySpec("selfie");
    auto image = sdk::buildImage(spec, authorKey());
    auto enclave = world.urts->load(image, spec.interface).orThrow("load");
    EXPECT_EQ(
        world.machine.nasso(enclave->secsPage(), enclave->secsPage()).code(),
        Err::GeneralProtection);
}

TEST(Lifecycle, EremoveRefusesAssociatedSecs)
{
    World world;
    NestedPair pair =
        loadNestedPair(world, tinySpec("outer-rm"), tinySpec("inner-rm"));
    // Unloading the outer while the association is live must fail when it
    // reaches the SECS (pages are gone, association still recorded).
    Status st = world.urts->unload(pair.outer);
    EXPECT_FALSE(st.isOk());
}

// --- outer-closure memoization ---------------------------------------------

TEST(ClosureCache, NassoInvalidatesMemoizedClosures)
{
    World world;
    auto outerSpec = tinySpec("cc-outer");
    auto innerSpec = tinySpec("cc-inner");
    innerSpec.expectedOuter = expectSigner(authorKey());
    outerSpec.allowedInners.push_back(expectSigner(authorKey()));
    auto outer = world.urts->load(sdk::buildImage(outerSpec, authorKey()),
                                  outerSpec.interface)
                     .orThrow("outer");
    auto inner = world.urts->load(sdk::buildImage(innerSpec, authorKey()),
                                  innerSpec.interface)
                     .orThrow("inner");

    auto& machine = world.machine;
    // First query walks the graph; the repeat is served memoized.
    const auto missesBefore = machine.stats().closureCacheMisses;
    EXPECT_TRUE(machine.outerClosure(inner->secsPage()).empty());
    EXPECT_EQ(machine.stats().closureCacheMisses, missesBefore + 1);
    const auto hitsBefore = machine.stats().closureCacheHits;
    EXPECT_TRUE(machine.outerClosure(inner->secsPage()).empty());
    EXPECT_EQ(machine.stats().closureCacheHits, hitsBefore + 1);

    // NASSO adds an edge mid-run: the memoized (empty) closure would now
    // be a security-relevant lie and must have been dropped.
    ASSERT_TRUE(world.urts->associate(inner, outer).isOk());
    const auto& closure = machine.outerClosure(inner->secsPage());
    ASSERT_EQ(closure.size(), 1u);
    EXPECT_EQ(closure[0], outer->secsPage());
}

TEST(ClosureCache, EremoveTearsDownEdgeAndInvalidates)
{
    World world;
    NestedPair pair =
        loadNestedPair(world, tinySpec("cc-outer2"), tinySpec("cc-inner2"));
    auto& machine = world.machine;
    // Warm the cache: the inner's closure reaches the outer.
    ASSERT_EQ(machine.outerClosure(pair.inner->secsPage()).size(), 1u);

    // Removing the inner enclave tears the association edge down.
    const hw::Paddr innerSecs = pair.inner->secsPage();
    ASSERT_TRUE(world.urts->unload(pair.inner).isOk());
    EXPECT_EQ(machine.secsAt(innerSecs), nullptr);
    const sgx::Secs* outer = machine.secsAt(pair.outer->secsPage());
    ASSERT_NE(outer, nullptr);
    EXPECT_TRUE(outer->innerEids.empty());
    // The memoized closure went with it: a fresh query re-walks and
    // finds nothing, instead of serving the stale {outer} result.
    const auto missesBefore = machine.stats().closureCacheMisses;
    EXPECT_TRUE(machine.outerClosure(innerSecs).empty());
    EXPECT_EQ(machine.stats().closureCacheMisses, missesBefore + 1);
    // With the edge gone, the outer can leave too.
    EXPECT_TRUE(world.urts->unload(pair.outer).isOk());
}

}  // namespace
}  // namespace nesgx::test
