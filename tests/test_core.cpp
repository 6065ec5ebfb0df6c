/** Core-API tests: NestedAppBuilder, NestedApp call routing, monolithic
 *  loader, and the state-dump helpers. */
#include <gtest/gtest.h>

#include "core/compose.h"
#include "core/dump.h"
#include "harness.h"

namespace nesgx::test {
namespace {

sdk::EnclaveSpec
echoSpec(const std::string& name)
{
    auto spec = tinySpec(name);
    spec.interface->addNEcall(
        "who", [name](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
            return bytesOf(name);
        });
    return spec;
}

TEST(Compose, BuildsAndRoutesToNamedInners)
{
    World world;
    auto app = core::NestedAppBuilder(*world.urts)
                   .outer(tinySpec("cmp-outer"))
                   .addInner(echoSpec("cmp-a"))
                   .addInner(echoSpec("cmp-b"))
                   .build()
                   .orThrow("build");

    EXPECT_EQ(app.inners().size(), 2u);
    EXPECT_NE(app.inner("cmp-a"), nullptr);
    EXPECT_EQ(app.inner("missing"), nullptr);

    EXPECT_EQ(app.callInner("cmp-a", "who", {}).orThrow("a"),
              bytesOf("cmp-a"));
    EXPECT_EQ(app.callInner("cmp-b", "who", {}).orThrow("b"),
              bytesOf("cmp-b"));
    EXPECT_EQ(app.callInner("missing", "who", {}).code(), Err::NoSuchCall);
}

TEST(Compose, OuterEcallStillAvailable)
{
    World world;
    auto outerSpec = tinySpec("cmp2-outer");
    outerSpec.interface->addEcall(
        "ping", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
            return bytesOf("pong");
        });
    auto app = core::NestedAppBuilder(*world.urts)
                   .outer(outerSpec)
                   .addInner(echoSpec("cmp2-a"))
                   .build()
                   .orThrow("build");
    EXPECT_EQ(app.callOuter("ping", {}).orThrow("ping"), bytesOf("pong"));
}

TEST(Compose, SignedExpectationsWiredAutomatically)
{
    // The builder embeds the mutual expectations: hardware state shows
    // the association, and a third enclave by another author cannot join.
    World world;
    auto app = core::NestedAppBuilder(*world.urts)
                   .outer(tinySpec("cmp3-outer"))
                   .addInner(echoSpec("cmp3-a"))
                   .signer(authorKey())
                   .build()
                   .orThrow("build");

    auto rogueSpec = tinySpec("cmp3-rogue");
    rogueSpec.expectedOuter = expectSigner(authorKey());  // wants in
    auto rogue = world.urts
                     ->load(sdk::buildImage(rogueSpec, otherAuthorKey()),
                            rogueSpec.interface)
                     .orThrow("rogue");
    EXPECT_EQ(world.urts->associate(rogue, app.outer()).code(),
              Err::AssociationRejected);
}

TEST(Compose, MonolithicLoaderWorks)
{
    World world;
    auto spec = tinySpec("cmp-mono");
    spec.interface->addEcall(
        "fn", [](sdk::TrustedEnv&, ByteView arg) -> Result<Bytes> {
            return Bytes(arg.begin(), arg.end());
        });
    auto enclave =
        core::loadMonolithic(*world.urts, spec, &authorKey()).orThrow("m");
    EXPECT_EQ(world.urts->ecall(enclave, "fn", bytesOf("x")).orThrow("fn"),
              bytesOf("x"));
}

TEST(Compose, BuilderPropagatesLoadFailure)
{
    // EPC too small for the outer: build() surfaces the failure.
    sgx::Machine::Config config;
    config.dramBytes = 16ull << 20;
    config.prmBase = 8ull << 20;
    config.prmBytes = 16 * hw::kPageSize;
    World world(config);
    auto result = core::NestedAppBuilder(*world.urts)
                      .outer(tinySpec("cmp-fail"))
                      .addInner(tinySpec("cmp-fail-in"))
                      .build();
    EXPECT_FALSE(result.isOk());
}

TEST(Dump, EnclaveTreeShowsNesting)
{
    World world;
    auto app = core::NestedAppBuilder(*world.urts)
                   .outer(tinySpec("dump-outer"))
                   .addInner(echoSpec("dump-a"))
                   .addInner(echoSpec("dump-b"))
                   .build()
                   .orThrow("build");
    (void)app;

    std::string tree = core::dumpEnclaveTree(world.machine);
    // One root with two children, rendered with indentation.
    EXPECT_NE(tree.find("- eid 1"), std::string::npos);
    EXPECT_NE(tree.find("    - eid"), std::string::npos);
    EXPECT_EQ(tree.find("(uninitialized)"), std::string::npos);
}

TEST(Dump, StatsAndEpcUsageRender)
{
    World world;
    auto app = core::NestedAppBuilder(*world.urts)
                   .outer(tinySpec("dump2-outer"))
                   .addInner(echoSpec("dump2-a"))
                   .build()
                   .orThrow("build");
    app.callInner("dump2-a", "who", {}).orThrow("call");

    std::string stats = core::dumpStats(world.machine);
    EXPECT_NE(stats.find("neenter/neexit    1 / 1"), std::string::npos);

    std::string epc = core::dumpEpcUsage(world.machine);
    EXPECT_NE(epc.find("2 SECS"), std::string::npos);
    EXPECT_NE(epc.find("owner eid 1"), std::string::npos);
}

TEST(Dump, CycleInAssociationGraphIsFlaggedAndTerminates)
{
    // Regression: a corrupted association graph containing a cycle (an
    // enclave reachable as its own descendant) used to recurse
    // dumpSubtree without bound. No legal NASSO sequence produces one —
    // hand-wire A <-> B directly in the SECS table and check the dump
    // reports the back edge and returns.
    World world;
    auto oa = tinySpec("cyc-a");
    oa.allowedInners.push_back(expectSigner(authorKey()));
    auto ib = tinySpec("cyc-b");
    ib.expectedOuter = expectSigner(authorKey());
    auto a = world.urts->load(sdk::buildImage(oa, authorKey()),
                              oa.interface).orThrow("a");
    auto b = world.urts->load(sdk::buildImage(ib, authorKey()),
                              ib.interface).orThrow("b");
    ASSERT_TRUE(world.urts->associate(b, a).isOk());

    sgx::Secs* sa = world.machine.secsAt(a->secsPage());
    sgx::Secs* sb = world.machine.secsAt(b->secsPage());
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    sa->outerEids.push_back(b->secsPage());
    sb->innerEids.push_back(a->secsPage());

    std::string tree = core::dumpEnclaveTree(world.machine);
    EXPECT_NE(tree.find("[CYCLE"), std::string::npos);
    // Both enclaves render as real nodes before the back edge fires.
    EXPECT_NE(tree.find("- eid " + std::to_string(sa->eid) + " @"),
              std::string::npos);
    EXPECT_NE(tree.find("- eid " + std::to_string(sb->eid) + " @"),
              std::string::npos);
}

TEST(Dump, MultiOuterAnnotated)
{
    World world;
    auto oa = tinySpec("dump-moa");
    auto ob = tinySpec("dump-mob");
    oa.allowedInners.push_back(expectSigner(authorKey()));
    ob.allowedInners.push_back(expectSigner(authorKey()));
    auto bridgeSpec = tinySpec("dump-bridge");
    bridgeSpec.attributes = sgx::kAttrMultiOuter;
    bridgeSpec.expectedOuter = expectSigner(authorKey());

    auto outerA =
        world.urts->load(sdk::buildImage(oa, authorKey()),
                         oa.interface).orThrow("a");
    auto outerB =
        world.urts->load(sdk::buildImage(ob, authorKey()),
                         ob.interface).orThrow("b");
    auto bridge = world.urts
                      ->load(sdk::buildImage(bridgeSpec, authorKey()),
                             bridgeSpec.interface)
                      .orThrow("bridge");
    ASSERT_TRUE(world.urts->associate(bridge, outerA).isOk());
    ASSERT_TRUE(world.urts->associate(bridge, outerB).isOk());

    std::string tree = core::dumpEnclaveTree(world.machine);
    EXPECT_NE(tree.find("[multi-outer: 2]"), std::string::npos);
}

}  // namespace
}  // namespace nesgx::test
