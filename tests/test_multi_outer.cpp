/**
 * Multiple outer enclaves per inner (paper §VIII, the lattice model).
 *
 * The motivating use: an enclave sets up a *separate private secure
 * channel* to each of several peers by joining one shared outer per
 * peer. These tests build:
 *
 *       outerA        outerB
 *          \          /
 *           bridge (kAttrMultiOuter)
 *
 * and check association rules, access rights, transitions, tracking and
 * attestation over the DAG.
 */
#include <gtest/gtest.h>

#include <array>

#include "core/channel.h"
#include "harness.h"

namespace nesgx::test {
namespace {

class MultiOuter : public ::testing::Test {
  protected:
    void SetUp() override
    {
        world_ = std::make_unique<World>();

        auto outerASpec = tinySpec("mo-outer-a");
        auto outerBSpec = tinySpec("mo-outer-b");
        outerASpec.allowedInners.push_back(expectSigner(authorKey()));
        outerBSpec.allowedInners.push_back(expectSigner(authorKey()));

        auto bridgeSpec = tinySpec("mo-bridge");
        bridgeSpec.attributes = sgx::kAttrMultiOuter;
        bridgeSpec.expectedOuter = expectSigner(authorKey());

        outerA_ = world_->urts
                      ->load(sdk::buildImage(outerASpec, authorKey()),
                             outerASpec.interface)
                      .orThrow("a");
        outerB_ = world_->urts
                      ->load(sdk::buildImage(outerBSpec, authorKey()),
                             outerBSpec.interface)
                      .orThrow("b");
        bridge_ = world_->urts
                      ->load(sdk::buildImage(bridgeSpec, authorKey()),
                             bridgeSpec.interface)
                      .orThrow("bridge");
        ASSERT_TRUE(world_->urts->associate(bridge_, outerA_).isOk());
        ASSERT_TRUE(world_->urts->associate(bridge_, outerB_).isOk());

        aVa_ = outerA_->heap().alloc(64);
        bVa_ = outerB_->heap().alloc(64);
        bridgeVa_ = bridge_->heap().alloc(64);
    }

    hw::Paddr firstTcs(sdk::LoadedEnclave* e)
    {
        const auto* rec = world_->kernel.enclaveRecord(e->secsPage());
        for (const auto& [va, pa] : rec->pages) {
            if (world_->machine.epcm()
                    .entry(world_->machine.mem().epcPageIndex(pa))
                    .type == sgx::PageType::Tcs) {
                return pa;
            }
        }
        return 0;
    }

    Status read(hw::Vaddr va, hw::CoreId core = 0)
    {
        std::uint8_t buf[8];
        return world_->machine.read(core, va, buf, 8);
    }

    std::unique_ptr<World> world_;
    sdk::LoadedEnclave* outerA_ = nullptr;
    sdk::LoadedEnclave* outerB_ = nullptr;
    sdk::LoadedEnclave* bridge_ = nullptr;
    hw::Vaddr aVa_ = 0;
    hw::Vaddr bVa_ = 0;
    hw::Vaddr bridgeVa_ = 0;
};

TEST_F(MultiOuter, BothAssociationsRecorded)
{
    const sgx::Secs* bridge = world_->machine.secsAt(bridge_->secsPage());
    ASSERT_EQ(bridge->outerEids.size(), 2u);
    EXPECT_TRUE(bridge->hasOuter(outerA_->secsPage()));
    EXPECT_TRUE(bridge->hasOuter(outerB_->secsPage()));
    EXPECT_EQ(bridge->outerEid(), outerA_->secsPage());  // primary = first
}

TEST_F(MultiOuter, DefaultInnerStillSingleOuter)
{
    // Without kAttrMultiOuter the second NASSO must fail (paper §IV-A).
    auto plainSpec = tinySpec("mo-plain");
    plainSpec.expectedOuter = expectSigner(authorKey());
    auto plain = world_->urts
                     ->load(sdk::buildImage(plainSpec, authorKey()),
                            plainSpec.interface)
                     .orThrow("plain");
    ASSERT_TRUE(world_->urts->associate(plain, outerA_).isOk());
    EXPECT_EQ(world_->urts->associate(plain, outerB_).code(),
              Err::GeneralProtection);
}

TEST_F(MultiOuter, DuplicateAssociationRejected)
{
    EXPECT_EQ(world_->urts->associate(bridge_, outerA_).code(),
              Err::GeneralProtection);
}

TEST_F(MultiOuter, BridgeReadsBothOuters)
{
    // Entered via outerA, the bridge still reads outerB's memory: access
    // rights follow the association graph, not the entry path.
    ASSERT_TRUE(world_->machine.eenter(0, firstTcs(outerA_)).isOk());
    ASSERT_TRUE(world_->machine.neenter(0, firstTcs(bridge_)).isOk());
    EXPECT_TRUE(read(bridgeVa_).isOk());
    EXPECT_TRUE(read(aVa_).isOk());
    EXPECT_TRUE(read(bVa_).isOk());
    ASSERT_TRUE(world_->machine.neexit(0).isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

TEST_F(MultiOuter, OutersCannotReadEachOtherOrTheBridge)
{
    ASSERT_TRUE(world_->machine.eenter(0, firstTcs(outerA_)).isOk());
    EXPECT_EQ(read(bVa_).code(), Err::PageFault);
    EXPECT_EQ(read(bridgeVa_).code(), Err::PageFault);
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

TEST_F(MultiOuter, NeenterFromEitherOuter)
{
    for (sdk::LoadedEnclave* outer : {outerA_, outerB_}) {
        ASSERT_TRUE(world_->machine.eenter(0, firstTcs(outer)).isOk());
        ASSERT_TRUE(world_->machine.neenter(0, firstTcs(bridge_)).isOk());
        EXPECT_EQ(world_->machine.core(0).currentSecs(),
                  bridge_->secsPage());
        ASSERT_TRUE(world_->machine.neexit(0).isOk());
        EXPECT_EQ(world_->machine.core(0).currentSecs(),
                  outer->secsPage());
        ASSERT_TRUE(world_->machine.eexit(0).isOk());
    }
}

TEST_F(MultiOuter, NOcallResolvesTheEnteredOuter)
{
    // Register distinct n_ocall targets in each outer; the bridge's
    // n_ocall must dispatch into whichever outer it was entered from.
    World world;
    auto oa = tinySpec("mo2-outer-a");
    auto ob = tinySpec("mo2-outer-b");
    oa.allowedInners.push_back(expectSigner(authorKey()));
    ob.allowedInners.push_back(expectSigner(authorKey()));
    oa.interface->addNOcallTarget(
        "whoami", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
            return bytesOf("outer-a");
        });
    ob.interface->addNOcallTarget(
        "whoami", [](sdk::TrustedEnv&, ByteView) -> Result<Bytes> {
            return bytesOf("outer-b");
        });
    auto br = tinySpec("mo2-bridge");
    br.attributes = sgx::kAttrMultiOuter;
    br.expectedOuter = expectSigner(authorKey());
    br.interface->addNEcall(
        "ask", [](sdk::TrustedEnv& env, ByteView) -> Result<Bytes> {
            return env.nOcall("whoami", {});
        });

    auto outerA =
        world.urts->load(sdk::buildImage(oa, authorKey()),
                         oa.interface).orThrow("a");
    auto outerB =
        world.urts->load(sdk::buildImage(ob, authorKey()),
                         ob.interface).orThrow("b");
    auto bridge =
        world.urts->load(sdk::buildImage(br, authorKey()),
                         br.interface).orThrow("br");
    ASSERT_TRUE(world.urts->associate(bridge, outerA).isOk());
    ASSERT_TRUE(world.urts->associate(bridge, outerB).isOk());

    auto viaA = world.urts->ecallChain(std::array{outerA, bridge}, "ask", {});
    ASSERT_TRUE(viaA.isOk()) << viaA.status().name();
    EXPECT_EQ(viaA.value(), bytesOf("outer-a"));
    auto viaB = world.urts->ecallChain(std::array{outerB, bridge}, "ask", {});
    ASSERT_TRUE(viaB.isOk());
    EXPECT_EQ(viaB.value(), bytesOf("outer-b"));
}

TEST_F(MultiOuter, PrivateChannelsPerPeer)
{
    // The §VIII use case: one private channel per outer. Data placed in
    // outerA's channel is invisible to anything nested only under outerB.
    auto channelA =
        core::OuterChannel::create(*outerA_, 1024).orThrow("chA");

    auto peerSpec = tinySpec("mo-peer-b");
    peerSpec.expectedOuter = expectSigner(authorKey());
    auto peer = world_->urts
                    ->load(sdk::buildImage(peerSpec, authorKey()),
                           peerSpec.interface)
                    .orThrow("peer");
    ASSERT_TRUE(world_->urts->associate(peer, outerB_).isOk());

    // Bridge writes into channel A.
    ASSERT_TRUE(world_->machine.eenter(0, firstTcs(outerA_)).isOk());
    ASSERT_TRUE(world_->machine.neenter(0, firstTcs(bridge_)).isOk());
    {
        sdk::TrustedEnv env(*world_->urts, *bridge_, 0);
        ASSERT_TRUE(channelA.send(env, bytesOf("for A's peers only")).isOk());
    }
    ASSERT_TRUE(world_->machine.neexit(0).isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());

    // The outerB-only peer cannot reach channel A's memory.
    ASSERT_TRUE(world_->machine.eenter(0, firstTcs(outerB_)).isOk());
    ASSERT_TRUE(world_->machine.neenter(0, firstTcs(peer)).isOk());
    EXPECT_EQ(read(channelA.dataVa()).code(), Err::PageFault);
    ASSERT_TRUE(world_->machine.neexit(0).isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

TEST_F(MultiOuter, TrackingCoversAllOuters)
{
    // A bridge thread may cache translations of *both* outers: evicting
    // a page of either must observe it.
    ASSERT_TRUE(world_->machine.eenter(1, firstTcs(outerB_)).isOk());
    ASSERT_TRUE(world_->machine.neenter(1, firstTcs(bridge_)).isOk());

    auto trackedA = world_->machine.trackedCores(outerA_->secsPage());
    auto trackedB = world_->machine.trackedCores(outerB_->secsPage());
    ASSERT_EQ(trackedA.size(), 1u);
    ASSERT_EQ(trackedB.size(), 1u);

    ASSERT_TRUE(world_->machine.neexit(1).isOk());
    ASSERT_TRUE(world_->machine.eexit(1).isOk());
}

TEST_F(MultiOuter, CycleAcrossDagRejected)
{
    // outerA itself is multi-outer-capable and tries to nest under the
    // bridge: bridge -> outerA is already an edge, so A under bridge
    // would close a cycle.
    World world;
    auto aSpec = tinySpec("mo3-a");
    aSpec.attributes = sgx::kAttrMultiOuter;
    aSpec.expectedOuter = expectSigner(authorKey());
    aSpec.allowedInners.push_back(expectSigner(authorKey()));
    auto bSpec = tinySpec("mo3-b");
    bSpec.attributes = sgx::kAttrMultiOuter;
    bSpec.expectedOuter = expectSigner(authorKey());
    bSpec.allowedInners.push_back(expectSigner(authorKey()));

    auto a = world.urts->load(sdk::buildImage(aSpec, authorKey()),
                              aSpec.interface)
                 .orThrow("a");
    auto b = world.urts->load(sdk::buildImage(bSpec, authorKey()),
                              bSpec.interface)
                 .orThrow("b");
    ASSERT_TRUE(world.urts->associate(a, b).isOk());
    EXPECT_EQ(world.urts->associate(b, a).code(), Err::GeneralProtection);
}

TEST_F(MultiOuter, NereportListsAllOuters)
{
    ASSERT_TRUE(world_->machine.eenter(0, firstTcs(bridge_)).isOk());
    sgx::TargetInfo target{outerA_->mrenclave()};
    auto report = world_->machine.nereport(0, target, sgx::ReportData{});
    ASSERT_TRUE(report.isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());

    ASSERT_EQ(report.value().outerMeasurements.size(), 2u);
    EXPECT_EQ(report.value().outerMeasurement, outerA_->mrenclave());
    EXPECT_EQ(report.value().outerMeasurements[0], outerA_->mrenclave());
    EXPECT_EQ(report.value().outerMeasurements[1], outerB_->mrenclave());
    EXPECT_TRUE(world_->machine.verifyNestedReport(report.value(),
                                                   outerA_->mrenclave()));
}

}  // namespace
}  // namespace nesgx::test
