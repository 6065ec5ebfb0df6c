/**
 * Memory-hierarchy cost-path tests: chargeDataPath's cacheline
 * accounting (LLC hit vs DRAM vs MEE), which Fig. 11 rests on.
 */
#include <gtest/gtest.h>

#include "harness.h"

namespace nesgx::test {
namespace {

class DataPath : public ::testing::Test {
  protected:
    void SetUp() override
    {
        sgx::Machine::Config config = World::smallConfig();
        config.llcBytes = 64 * hw::kCacheLineSize;  // tiny LLC: 64 lines
        world_ = std::make_unique<World>(config);
    }

    std::uint64_t cycles() { return world_->machine.clock().cycles(); }

    std::unique_ptr<World> world_;
};

TEST_F(DataPath, FirstTouchOfEpcLineChargesMee)
{
    auto& machine = world_->machine;
    hw::Paddr epcLine = machine.mem().prmBase();
    std::uint64_t before = cycles();
    machine.chargeDataPath(epcLine, 1);
    EXPECT_EQ(cycles() - before, machine.costs().meeLine);
    EXPECT_EQ(machine.stats().meeLines, 1u);
}

TEST_F(DataPath, SecondTouchIsLlcHit)
{
    auto& machine = world_->machine;
    hw::Paddr epcLine = machine.mem().prmBase();
    machine.chargeDataPath(epcLine, 1);
    std::uint64_t before = cycles();
    machine.chargeDataPath(epcLine, 1);
    EXPECT_EQ(cycles() - before, machine.costs().llcHitLine);
}

TEST_F(DataPath, NonEpcMissChargesDramNotMee)
{
    auto& machine = world_->machine;
    std::uint64_t meeBefore = machine.stats().meeLines;
    std::uint64_t before = cycles();
    machine.chargeDataPath(0x1000, 1);  // untrusted frame
    EXPECT_EQ(cycles() - before, machine.costs().dramLine);
    EXPECT_EQ(machine.stats().meeLines, meeBefore);
}

TEST_F(DataPath, RangeChargesPerTouchedLine)
{
    auto& machine = world_->machine;
    hw::Paddr base = machine.mem().prmBase();
    // 100 bytes starting 8 bytes before a line boundary: spans 3 lines.
    std::uint64_t before = cycles();
    machine.chargeDataPath(base + hw::kCacheLineSize - 8, 100);
    EXPECT_EQ(cycles() - before, 3 * machine.costs().meeLine);
}

TEST_F(DataPath, ZeroLengthChargesNothing)
{
    auto& machine = world_->machine;
    std::uint64_t before = cycles();
    machine.chargeDataPath(machine.mem().prmBase(), 0);
    EXPECT_EQ(cycles() - before, 0u);
}

TEST_F(DataPath, CapacityEvictionBringsMeeBack)
{
    auto& machine = world_->machine;
    hw::Paddr base = machine.mem().prmBase();
    // Fill the 64-line LLC twice over: steady-state sequential cycling
    // through 128 lines must keep missing (MEE on every touch).
    for (int pass = 0; pass < 2; ++pass) {
        for (int line = 0; line < 128; ++line) {
            machine.chargeDataPath(base + line * hw::kCacheLineSize, 1);
        }
    }
    std::uint64_t meeBefore = machine.stats().meeLines;
    for (int line = 0; line < 128; ++line) {
        machine.chargeDataPath(base + line * hw::kCacheLineSize, 1);
    }
    EXPECT_EQ(machine.stats().meeLines - meeBefore, 128u);
}

TEST_F(DataPath, WorkingSetWithinLlcStopsPayingMee)
{
    auto& machine = world_->machine;
    hw::Paddr base = machine.mem().prmBase();
    for (int line = 0; line < 32; ++line) {  // half the LLC
        machine.chargeDataPath(base + line * hw::kCacheLineSize, 1);
    }
    std::uint64_t meeBefore = machine.stats().meeLines;
    for (int pass = 0; pass < 4; ++pass) {
        for (int line = 0; line < 32; ++line) {
            machine.chargeDataPath(base + line * hw::kCacheLineSize, 1);
        }
    }
    EXPECT_EQ(machine.stats().meeLines, meeBefore);
}

TEST_F(DataPath, ValidatedReadsChargeTheDataPath)
{
    // End-to-end: an in-enclave read charges translation + line costs.
    auto spec = tinySpec("dp");
    auto image = sdk::buildImage(spec, authorKey());
    auto enclave = world_->urts->load(image, spec.interface).orThrow("load");
    const auto* rec = world_->kernel.enclaveRecord(enclave->secsPage());
    hw::Paddr tcs = 0;
    for (const auto& [va, pa] : rec->pages) {
        if (world_->machine.epcm()
                .entry(world_->machine.mem().epcPageIndex(pa))
                .type == sgx::PageType::Tcs) {
            tcs = pa;
            break;
        }
    }
    ASSERT_TRUE(world_->machine.eenter(0, tcs).isOk());
    hw::Vaddr heap = enclave->heap().alloc(256);

    std::uint8_t buf[128];
    world_->machine.llc().flush();
    std::uint64_t before = cycles();
    ASSERT_TRUE(world_->machine.read(0, heap, buf, 128).isOk());
    std::uint64_t first = cycles() - before;

    before = cycles();
    ASSERT_TRUE(world_->machine.read(0, heap, buf, 128).isOk());
    std::uint64_t second = cycles() - before;
    // Second read: TLB hit + LLC hits — strictly cheaper.
    EXPECT_LT(second, first);
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

}  // namespace
}  // namespace nesgx::test
