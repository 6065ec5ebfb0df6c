/**
 * Multi-level nesting (paper §VIII "Extending nested enclaves").
 *
 * The paper's two required updates for >2 levels — walking the chain of
 * inner-outer links during access validation, and extending TLB-flush
 * tracking across the chain — are implemented in the machine model;
 * these tests exercise a three-level nest:
 *
 *     top  (outer-most, lowest security)
 *      └─ mid  (inner of top)
 *          └─ leaf (inner of mid, highest security)
 */
#include <gtest/gtest.h>

#include "harness.h"

namespace nesgx::test {
namespace {

class ThreeLevels : public ::testing::Test {
  protected:
    void SetUp() override
    {
        world_ = std::make_unique<World>();

        auto topSpec = tinySpec("lvl-top");
        auto midSpec = tinySpec("lvl-mid");
        auto leafSpec = tinySpec("lvl-leaf");
        topSpec.allowedInners.push_back(expectSigner(authorKey()));
        midSpec.allowedInners.push_back(expectSigner(authorKey()));
        midSpec.expectedOuter = expectSigner(authorKey());
        leafSpec.expectedOuter = expectSigner(authorKey());

        top_ = world_->urts->load(sdk::buildImage(topSpec, authorKey()),
                                  topSpec.interface)
                   .orThrow("top");
        mid_ = world_->urts->load(sdk::buildImage(midSpec, authorKey()),
                                  midSpec.interface)
                   .orThrow("mid");
        leaf_ = world_->urts->load(sdk::buildImage(leafSpec, authorKey()),
                                   leafSpec.interface)
                    .orThrow("leaf");
        ASSERT_TRUE(world_->urts->associate(mid_, top_).isOk());
        ASSERT_TRUE(world_->urts->associate(leaf_, mid_).isOk());

        topVa_ = top_->heap().alloc(64);
        midVa_ = mid_->heap().alloc(64);
        leafVa_ = leaf_->heap().alloc(64);
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

    /** Enters the full three-level nest on the given core. */
    void enterToLeaf(hw::CoreId core = 0)
    {
        ASSERT_TRUE(world_->machine.eenter(core, firstTcs(top_)).isOk());
        ASSERT_TRUE(world_->machine.neenter(core, firstTcs(mid_)).isOk());
        ASSERT_TRUE(world_->machine.neenter(core, firstTcs(leaf_)).isOk());
    }

    void exitAll(hw::CoreId core = 0)
    {
        while (world_->machine.core(core).depth() > 1) {
            ASSERT_TRUE(world_->machine.neexit(core).isOk());
        }
        ASSERT_TRUE(world_->machine.eexit(core).isOk());
    }

    Status read(hw::Vaddr va, hw::CoreId core = 0)
    {
        std::uint8_t buf[8];
        return world_->machine.read(core, va, buf, 8);
    }

    std::unique_ptr<World> world_;
    sdk::LoadedEnclave* top_ = nullptr;
    sdk::LoadedEnclave* mid_ = nullptr;
    sdk::LoadedEnclave* leaf_ = nullptr;
    hw::Vaddr topVa_ = 0;
    hw::Vaddr midVa_ = 0;
    hw::Vaddr leafVa_ = 0;
};

TEST_F(ThreeLevels, ChainAssociationRecorded)
{
    const sgx::Secs* mid = world_->machine.secsAt(mid_->secsPage());
    EXPECT_EQ(mid->outerEid(), top_->secsPage());
    ASSERT_EQ(mid->innerEids.size(), 1u);
    EXPECT_EQ(mid->innerEids[0], leaf_->secsPage());
}

TEST_F(ThreeLevels, LeafReadsWholeChain)
{
    enterToLeaf();
    EXPECT_TRUE(read(leafVa_).isOk());
    EXPECT_TRUE(read(midVa_).isOk());   // one hop up
    EXPECT_TRUE(read(topVa_).isOk());   // two hops up (chain walk)
    exitAll();
}

TEST_F(ThreeLevels, MidReadsDownwardFails)
{
    ASSERT_TRUE(world_->machine.eenter(0, firstTcs(top_)).isOk());
    ASSERT_TRUE(world_->machine.neenter(0, firstTcs(mid_)).isOk());
    EXPECT_TRUE(read(midVa_).isOk());
    EXPECT_TRUE(read(topVa_).isOk());
    EXPECT_EQ(read(leafVa_).code(), Err::PageFault);  // never downward
    exitAll();
}

TEST_F(ThreeLevels, TopReadsNothingAbove)
{
    ASSERT_TRUE(world_->machine.eenter(0, firstTcs(top_)).isOk());
    EXPECT_TRUE(read(topVa_).isOk());
    EXPECT_EQ(read(midVa_).code(), Err::PageFault);
    EXPECT_EQ(read(leafVa_).code(), Err::PageFault);
    exitAll();
}

TEST_F(ThreeLevels, ChainWalkCostGrowsWithDepth)
{
    // §VIII: "arbitrary levels of nesting only increase the validation
    // time". Two hops cost more nested-check cycles than one.
    enterToLeaf();
    auto checksBefore = world_->machine.stats().nestedChecks;
    ASSERT_TRUE(read(midVa_).isOk());
    auto oneHop = world_->machine.stats().nestedChecks - checksBefore;

    checksBefore = world_->machine.stats().nestedChecks;
    ASSERT_TRUE(read(topVa_).isOk());
    auto twoHops = world_->machine.stats().nestedChecks - checksBefore;
    EXPECT_GT(twoHops, oneHop);
    exitAll();
}

TEST_F(ThreeLevels, NeenterSkippingALevelFails)
{
    // top -> leaf directly is not a valid NEENTER (leaf's outer is mid).
    ASSERT_TRUE(world_->machine.eenter(0, firstTcs(top_)).isOk());
    EXPECT_EQ(world_->machine.neenter(0, firstTcs(leaf_)).code(),
              Err::GeneralProtection);
    exitAll();
}

TEST_F(ThreeLevels, NeexitUnwindsLevelByLevel)
{
    enterToLeaf();
    EXPECT_EQ(world_->machine.core(0).depth(), 3u);
    ASSERT_TRUE(world_->machine.neexit(0).isOk());
    EXPECT_EQ(world_->machine.core(0).currentSecs(), mid_->secsPage());
    ASSERT_TRUE(world_->machine.neexit(0).isOk());
    EXPECT_EQ(world_->machine.core(0).currentSecs(), top_->secsPage());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
    EXPECT_FALSE(world_->machine.core(0).inEnclaveMode());
}

TEST_F(ThreeLevels, AexEresumeRestoresThreeLevels)
{
    enterToLeaf();
    ASSERT_TRUE(world_->machine.aex(0).isOk());
    EXPECT_FALSE(world_->machine.core(0).inEnclaveMode());
    ASSERT_TRUE(world_->machine.eresume(0, firstTcs(top_)).isOk());
    EXPECT_EQ(world_->machine.core(0).depth(), 3u);
    EXPECT_EQ(world_->machine.core(0).currentSecs(), leaf_->secsPage());
    exitAll();
}

TEST_F(ThreeLevels, LeafThreadTrackedForTopEviction)
{
    // §VIII TLB-flush tracking across multiple levels: a leaf thread may
    // cache top-enclave translations, so evicting a top page must
    // interrupt it.
    enterToLeaf(1);
    auto tracked = world_->machine.trackedCores(top_->secsPage());
    ASSERT_EQ(tracked.size(), 1u);
    EXPECT_EQ(tracked[0], 1u);

    ASSERT_TRUE(world_->kernel
                    .evictPage(top_->secsPage(), hw::pageBase(topVa_))
                    .isOk());
    EXPECT_FALSE(world_->machine.core(1).inEnclaveMode());  // AEX'ed
    // Resume and observe the fault on the evicted page.
    ASSERT_TRUE(world_->machine.eresume(1, firstTcs(top_)).isOk());
    EXPECT_EQ(read(topVa_, 1).code(), Err::PageFault);
    exitAll(1);
    // Reload for other tests' sanity.
    ASSERT_TRUE(world_->kernel
                    .reloadPage(top_->secsPage(), hw::pageBase(topVa_))
                    .isOk());
}

TEST_F(ThreeLevels, MidEvictionDoesNotTrackTopOnlyThread)
{
    ASSERT_TRUE(world_->machine.eenter(1, firstTcs(top_)).isOk());
    EXPECT_TRUE(world_->machine.trackedCores(mid_->secsPage()).empty());
    ASSERT_TRUE(world_->machine.eexit(1).isOk());
}

TEST_F(ThreeLevels, SiblingSubtreesAreIsolated)
{
    // Add a second mid-level enclave under top; the two subtrees must
    // not see each other.
    auto mid2Spec = tinySpec("lvl-mid2");
    mid2Spec.expectedOuter = expectSigner(authorKey());
    auto mid2 = world_->urts->load(sdk::buildImage(mid2Spec, authorKey()),
                                   mid2Spec.interface)
                    .orThrow("mid2");
    ASSERT_TRUE(world_->urts->associate(mid2, top_).isOk());
    hw::Vaddr mid2Va = mid2->heap().alloc(32);

    enterToLeaf();
    // leaf's chain is leaf->mid->top; mid2 is not on it.
    EXPECT_EQ(read(mid2Va).code(), Err::PageFault);
    exitAll();
}

TEST_F(ThreeLevels, NereportNamesDirectRelationsOnly)
{
    ASSERT_TRUE(world_->machine.eenter(0, firstTcs(mid_)).isOk());
    sgx::TargetInfo target{mid_->mrenclave()};
    auto report = world_->machine.nereport(0, target, sgx::ReportData{});
    ASSERT_TRUE(report.isOk());
    EXPECT_TRUE(report.value().nested());
    EXPECT_EQ(report.value().chainDepth, 1u);  // mid sits one hop down
    EXPECT_EQ(report.value().outerMeasurement, top_->mrenclave());
    ASSERT_EQ(report.value().innerMeasurements.size(), 1u);
    EXPECT_EQ(report.value().innerMeasurements[0], leaf_->mrenclave());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

}  // namespace
}  // namespace nesgx::test
