/**
 * SDK-layer tests: trusted heap behaviour (incl. the recycling property
 * the HeartBleed study depends on), enclave image layout/measurement
 * properties, SIGSTRUCT serialization, and interface identity.
 */
#include <gtest/gtest.h>

#include "harness.h"
#include "sdk/heap.h"

namespace nesgx::test {
namespace {

// --- trusted heap -----------------------------------------------------------

TEST(Heap, AllocatesDistinctAlignedBlocks)
{
    sdk::TrustedHeap heap(0x1000, 4096);
    hw::Vaddr a = heap.alloc(100);
    hw::Vaddr b = heap.alloc(100);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_GE(b, a + 112);  // rounded to 16
}

TEST(Heap, LifoRecyclingSameSizeClass)
{
    sdk::TrustedHeap heap(0x1000, 1 << 16);
    hw::Vaddr a = heap.alloc(4096);
    hw::Vaddr b = heap.alloc(4096);
    heap.free(a);
    heap.free(b);
    // Most-recently-freed first: b then a.
    EXPECT_EQ(heap.alloc(4096), b);
    EXPECT_EQ(heap.alloc(4096), a);
}

TEST(Heap, DifferentSizeClassesDoNotMix)
{
    sdk::TrustedHeap heap(0x1000, 1 << 16);
    hw::Vaddr a = heap.alloc(4096);
    heap.free(a);
    hw::Vaddr b = heap.alloc(128);
    EXPECT_NE(b, a);  // the 4096-class block is not reused for 128
    hw::Vaddr c = heap.alloc(4096);
    EXPECT_EQ(c, a);
}

TEST(Heap, ExhaustionReturnsZero)
{
    sdk::TrustedHeap heap(0x1000, 256);
    EXPECT_NE(heap.alloc(128), 0u);
    EXPECT_NE(heap.alloc(128), 0u);
    EXPECT_EQ(heap.alloc(16), 0u);
    EXPECT_EQ(heap.alloc(0x10000), 0u);
}

TEST(Heap, InUseAccounting)
{
    sdk::TrustedHeap heap(0x1000, 4096);
    EXPECT_EQ(heap.bytesInUse(), 0u);
    hw::Vaddr a = heap.alloc(100);
    EXPECT_EQ(heap.bytesInUse(), 112u);
    heap.free(a);
    EXPECT_EQ(heap.bytesInUse(), 0u);
    heap.free(a);  // double free is ignored
    EXPECT_EQ(heap.bytesInUse(), 0u);
}

TEST(Heap, ZeroSizeAllocSucceeds)
{
    sdk::TrustedHeap heap(0x1000, 4096);
    hw::Vaddr a = heap.alloc(0);
    EXPECT_NE(a, 0u);
    EXPECT_EQ(heap.blockSize(a), 16u);
}

// --- image layout & measurement -----------------------------------------------

TEST(Image, LayoutIsDeterministic)
{
    auto spec = tinySpec("layout");
    auto a = sdk::buildImage(spec, authorKey());
    auto b = sdk::buildImage(spec, authorKey());
    EXPECT_EQ(a->mrenclave, b->mrenclave);
    ASSERT_EQ(a->pages.size(), b->pages.size());
    for (std::size_t i = 0; i < a->pages.size(); ++i) {
        EXPECT_EQ(a->pages[i].offset, b->pages[i].offset);
        EXPECT_EQ(a->pages[i].content, b->pages[i].content);
    }
}

TEST(Image, SizeIsPowerOfTwo)
{
    auto spec = tinySpec("pow2");
    spec.heapPages = 37;
    auto image = sdk::buildImage(spec, authorKey());
    EXPECT_EQ(image->sizeBytes & (image->sizeBytes - 1), 0u);
    EXPECT_GE(image->sizeBytes, spec.totalPages() * hw::kPageSize);
}

TEST(Image, InterfaceChangesMeasurement)
{
    auto a = tinySpec("iface");
    auto b = tinySpec("iface");
    b.interface = std::make_shared<sdk::EnclaveInterface>();
    b.interface->addEcall("extra",
                          [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
                              return Bytes{};
                          });
    EXPECT_NE(sdk::predictMeasurement(a), sdk::predictMeasurement(b));
}

TEST(Image, RegionSizesChangeMeasurement)
{
    auto a = tinySpec("size");
    auto b = tinySpec("size");
    b.heapPages += 1;
    EXPECT_NE(sdk::predictMeasurement(a), sdk::predictMeasurement(b));
}

TEST(Image, ExpectationsDoNotChangeMeasurement)
{
    // Association expectations live in the SIGSTRUCT, not the measured
    // layout — an outer can therefore predict its own MRENCLAVE before
    // knowing which inners it will allow.
    auto a = tinySpec("expect");
    auto b = tinySpec("expect");
    b.allowedInners.push_back(expectSigner(authorKey()));
    b.expectedOuter = expectSigner(authorKey());
    EXPECT_EQ(sdk::predictMeasurement(a), sdk::predictMeasurement(b));
}

TEST(Image, HeapRegionInsideELRange)
{
    auto spec = tinySpec("heap-geom");
    auto image = sdk::buildImage(spec, authorKey());
    EXPECT_GT(image->heapOffset, 0u);
    EXPECT_LE(image->heapOffset + image->heapBytes,
              spec.totalPages() * hw::kPageSize);
    EXPECT_EQ(image->heapBytes, spec.heapPages * hw::kPageSize);
}

TEST(Image, HoldsNoTrustedFunctions)
{
    // An image outlives the instances loaded from it, so it must not pin
    // the state their functions close over.
    auto state = std::make_shared<int>(0);
    std::weak_ptr<int> watch = state;
    auto spec = tinySpec("stateless");
    spec.interface->addEcall(
        "get", [state](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
            return Bytes(1, std::uint8_t(*state));
        });
    auto image = sdk::buildImage(spec, authorKey());
    state.reset();
    spec.interface.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_FALSE(image->surface.empty());
}

TEST(Image, LoadRefusesABindingThatDiffersFromTheMeasuredInterface)
{
    World world;
    const sdk::TrustedFn echo = [](sdk::TrustedEnv&,
                                   ByteView arg) -> Result<Bytes> {
        return Bytes(arg.begin(), arg.end());
    };
    auto bind = [&echo](std::initializer_list<const char*> ecalls,
                        std::initializer_list<const char*> nEcalls) {
        auto fns = std::make_shared<sdk::EnclaveInterface>();
        for (const char* name : ecalls) fns->addEcall(name, echo);
        for (const char* name : nEcalls) fns->addNEcall(name, echo);
        return fns;
    };
    auto spec = tinySpec("bound");
    spec.interface = bind({"ping"}, {"work"});
    auto image = sdk::buildImage(spec, authorKey());

    // The host picks the functions a load binds. One n_ecall more, one
    // fewer, or a renamed ecall is refused typed before ECREATE, so no
    // EPC page is spent on it.
    const std::size_t freeBefore = world.kernel.freeEpcPages();
    const std::shared_ptr<sdk::EnclaveInterface> hostile[] = {
        bind({"ping"}, {"work", "backdoor"}),
        bind({"ping"}, {}),
        bind({"pong"}, {"work"}),
    };
    for (const auto& binding : hostile) {
        auto loaded = world.urts->load(image, binding);
        ASSERT_FALSE(loaded.isOk());
        EXPECT_EQ(loaded.code(), Err::InvalidMeasurement);
        EXPECT_EQ(world.kernel.freeEpcPages(), freeBefore);
    }

    // Fresh functions that declare the measured surface load and run.
    auto enclave =
        world.urts->load(image, bind({"ping"}, {"work"})).orThrow("load");
    EXPECT_EQ(world.urts->ecall(enclave, "ping", bytesOf("hi")).orThrow("ping"),
              bytesOf("hi"));
    EXPECT_EQ(&enclave->image(), image.get());
}

// --- SIGSTRUCT -------------------------------------------------------------------

TEST(SigStruct, VerifyAfterSign)
{
    sgx::SigStruct sig;
    sig.enclaveHash.fill(0x5a);
    sig.attributes = 7;
    sig.sign(authorKey());
    EXPECT_TRUE(sig.verify());
}

TEST(SigStruct, BodyCoversExpectations)
{
    sgx::SigStruct sig;
    sig.enclaveHash.fill(0x5a);
    sig.sign(authorKey());
    Bytes before = sig.signedBody();

    sgx::SigStruct other = sig;
    other.allowedInners.push_back(expectSigner(authorKey()));
    EXPECT_NE(before, other.signedBody());
    // The old signature no longer covers the mutated body.
    EXPECT_FALSE(other.verify());
}

TEST(SigStruct, PeerExpectationMatching)
{
    sgx::PeerExpectation both;
    both.mrenclave = sgx::Measurement{};
    both.mrenclave->fill(1);
    both.mrsigner = sgx::Measurement{};
    both.mrsigner->fill(2);

    sgx::Measurement m1{}, m2{};
    m1.fill(1);
    m2.fill(2);
    EXPECT_TRUE(both.matches(m1, m2));
    sgx::Measurement wrong{};
    wrong.fill(9);
    EXPECT_FALSE(both.matches(wrong, m2));
    EXPECT_FALSE(both.matches(m1, wrong));

    sgx::PeerExpectation none;
    EXPECT_FALSE(none.matches(m1, m2));  // empty expectation matches nothing
}

// --- interface ---------------------------------------------------------------------

TEST(Interface, LookupFindsRegisteredFunctions)
{
    sdk::EnclaveInterface iface;
    iface.addEcall("a", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
        return Bytes{};
    });
    iface.addNEcall("b", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
        return Bytes{};
    });
    iface.addNOcallTarget("c",
                          [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
                              return Bytes{};
                          });
    EXPECT_NE(iface.findEcall("a"), nullptr);
    EXPECT_EQ(iface.findEcall("b"), nullptr);
    EXPECT_NE(iface.findNEcall("b"), nullptr);
    EXPECT_NE(iface.findNOcallTarget("c"), nullptr);
    EXPECT_EQ(iface.findNOcallTarget("a"), nullptr);
}

TEST(Interface, DigestReflectsNames)
{
    sdk::EnclaveInterface a, b;
    a.addEcall("same", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
        return Bytes{};
    });
    b.addEcall("different",
               [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
                   return Bytes{};
               });
    EXPECT_NE(a.interfaceDigestInput(), b.interfaceDigestInput());
}

// --- urts edge cases ---------------------------------------------------------------

TEST(Urts, EnclavesGetDisjointAlignedBases)
{
    World world;
    auto aSpec = tinySpec("ua");
    auto bSpec = tinySpec("ub");
    auto a = world.urts->load(sdk::buildImage(aSpec, authorKey()),
                              aSpec.interface)
                 .orThrow("a");
    auto b = world.urts->load(sdk::buildImage(bSpec, authorKey()),
                              bSpec.interface)
                 .orThrow("b");
    EXPECT_EQ(a->base() % a->size(), 0u);  // natural alignment
    EXPECT_EQ(b->base() % b->size(), 0u);
    bool disjoint = a->base() + a->size() <= b->base() ||
                    b->base() + b->size() <= a->base();
    EXPECT_TRUE(disjoint);
}

TEST(Urts, ParallelCallsNeedSeparateCoresAndTcs)
{
    World world;
    auto spec = tinySpec("parallel");
    spec.tcsCount = 2;
    spec.interface->addEcall(
        "busy", [&world](sdk::TrustedEnv& env, ByteView) -> Result<Bytes> {
            // While core 0 is inside, a second ecall works on core 1.
            auto nestedCall = world.urts->ecall(
                &env.enclave(), "quick", {}, /*core=*/1);
            if (!nestedCall) return nestedCall.status();
            return Bytes{};
        });
    spec.interface->addEcall("quick",
                             [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
                                 return Bytes{};
                             });
    auto enclave =
        world.urts->load(sdk::buildImage(spec, authorKey()), spec.interface)
            .orThrow("load");
    EXPECT_TRUE(world.urts->ecall(enclave, "busy", {}).isOk());
}

TEST(Urts, EpcExhaustionSurfacesCleanly)
{
    // A machine with a tiny EPC runs out while loading.
    sgx::Machine::Config config;
    config.dramBytes = 16ull << 20;
    config.prmBase = 8ull << 20;
    config.prmBytes = 64 * hw::kPageSize;  // 64 EPC pages only
    World world(config);

    auto spec = tinySpec("hog");
    spec.heapPages = 256;  // needs far more than 64 pages
    auto loaded =
        world.urts->load(sdk::buildImage(spec, authorKey()), spec.interface);
    EXPECT_FALSE(loaded.isOk());
    EXPECT_EQ(loaded.code(), Err::OsError);
}

}  // namespace
}  // namespace nesgx::test
