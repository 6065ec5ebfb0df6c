/**
 * Transition-leaf tests: EENTER/EEXIT/NEENTER/NEEXIT/AEX/ERESUME state
 * machine (paper Fig. 5), TCS busy tracking, and the SDK call paths
 * (ecall/ocall/n_ecall/n_ocall) built on top of them.
 */
#include <gtest/gtest.h>

#include <array>

#include "harness.h"

namespace nesgx::test {
namespace {

class Transitions : public ::testing::Test {
  protected:
    void SetUp() override
    {
        world_ = std::make_unique<World>();

        auto outerSpec = tinySpec("tr-outer");
        auto innerSpec = tinySpec("tr-inner");

        // Outer interface: an echo ecall, an n_ocall target, and a
        // trampoline that n_ecalls into the inner.
        outerSpec.interface->addEcall(
            "echo", [](sdk::TrustedEnv&, ByteView arg) -> Result<Bytes> {
                return Bytes(arg.begin(), arg.end());
            });
        outerSpec.interface->addNOcallTarget(
            "outer_service",
            [](sdk::TrustedEnv&, ByteView arg) -> Result<Bytes> {
                Bytes out = bytesOf("outer:");
                append(out, arg);
                return out;
            });
        outerSpec.interface->addEcall(
            "call_inner",
            [this](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
                return env.nEcall(*pair_.inner, "inner_fn", arg);
            });
        outerSpec.interface->addEcall(
            "do_ocall",
            [](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
                return env.ocall("host_fn", arg);
            });

        // Inner interface: a function that calls back into the outer.
        innerSpec.interface->addNEcall(
            "inner_fn",
            [](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
                auto fromOuter = env.nOcall("outer_service", arg);
                if (!fromOuter) return fromOuter.status();
                Bytes out = bytesOf("inner[");
                append(out, fromOuter.value());
                append(out, bytesOf("]"));
                return out;
            });
        innerSpec.interface->addNEcall(
            "inner_plain",
            [](sdk::TrustedEnv&, ByteView arg) -> Result<Bytes> {
                Bytes out = bytesOf("plain:");
                append(out, arg);
                return out;
            });

        pair_ = loadNestedPair(*world_, outerSpec, innerSpec);
        world_->urts->registerOcall(
            "host_fn", [](ByteView arg) -> Result<Bytes> {
                Bytes out = bytesOf("host:");
                append(out, arg);
                return out;
            });
    }

    std::unique_ptr<World> world_;
    NestedPair pair_;
};

TEST_F(Transitions, EcallRoundTrip)
{
    auto result = world_->urts->ecall(pair_.outer, "echo", bytesOf("hi"));
    ASSERT_TRUE(result.isOk()) << result.status().name();
    EXPECT_EQ(result.value(), bytesOf("hi"));
    EXPECT_FALSE(world_->machine.core(0).inEnclaveMode());
}

TEST_F(Transitions, OcallFromEnclave)
{
    auto result = world_->urts->ecall(pair_.outer, "do_ocall", bytesOf("x"));
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), bytesOf("host:x"));
}

TEST_F(Transitions, NestedCallChain)
{
    // untrusted -> outer (ecall) -> inner (n_ecall) -> outer (n_ocall).
    auto result =
        world_->urts->ecall(pair_.outer, "call_inner", bytesOf("data"));
    ASSERT_TRUE(result.isOk()) << result.status().name();
    EXPECT_EQ(result.value(), bytesOf("inner[outer:data]"));

    const auto& stats = world_->machine.stats();
    EXPECT_EQ(stats.eenterCount, 1u);
    EXPECT_EQ(stats.eexitCount, 1u);
    // n_ecall in + n_ocall out-and-back = 2 NEENTERs, 2 NEEXITs.
    EXPECT_EQ(stats.neenterCount, 2u);
    EXPECT_EQ(stats.neexitCount, 2u);
}

TEST_F(Transitions, EcallNestedHelper)
{
    auto result = world_->urts->ecallChain(
        std::array{pair_.outer, pair_.inner}, "inner_plain", bytesOf("z"));
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), bytesOf("plain:z"));
}

TEST_F(Transitions, DirectEnterIntoInnerEnclave)
{
    // Paper Fig. 5: untrusted code may EENTER an inner enclave directly.
    auto result =
        world_->urts->ecall(pair_.inner, "inner_plain", bytesOf("direct"));
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), bytesOf("plain:direct"));
}

TEST_F(Transitions, DirectInnerSessionCannotNOcall)
{
    // Entered directly (depth 1), the inner has no outer frame to NEEXIT
    // into: n_ocall must fail cleanly instead of corrupting state.
    auto result =
        world_->urts->ecall(pair_.inner, "inner_fn", bytesOf("direct"));
    ASSERT_FALSE(result.isOk());
    EXPECT_FALSE(world_->machine.core(0).inEnclaveMode());
}

TEST_F(Transitions, UnknownCallNamesFail)
{
    EXPECT_EQ(world_->urts->ecall(pair_.outer, "nope", {}).code(),
              Err::NoSuchCall);
}

TEST_F(Transitions, NeenterRequiresAssociation)
{
    // An unassociated enclave's TCS is not a valid NEENTER target.
    auto strangerSpec = tinySpec("stranger");
    auto stranger = world_->urts->load(sdk::buildImage(strangerSpec, authorKey()),
                                       strangerSpec.interface)
                        .orThrow("stranger");
    const auto* rec = world_->kernel.enclaveRecord(stranger->secsPage());
    hw::Paddr strangerTcs = 0;
    for (const auto& [va, pa] : rec->pages) {
        const auto& e = world_->machine.epcm().entry(
            world_->machine.mem().epcPageIndex(pa));
        if (e.type == sgx::PageType::Tcs) {
            strangerTcs = pa;
            break;
        }
    }
    const auto* recO = world_->kernel.enclaveRecord(pair_.outer->secsPage());
    hw::Paddr outerTcs = 0;
    for (const auto& [va, pa] : recO->pages) {
        const auto& e = world_->machine.epcm().entry(
            world_->machine.mem().epcPageIndex(pa));
        if (e.type == sgx::PageType::Tcs) {
            outerTcs = pa;
            break;
        }
    }
    ASSERT_TRUE(world_->machine.eenter(0, outerTcs).isOk());
    EXPECT_EQ(world_->machine.neenter(0, strangerTcs).code(),
              Err::GeneralProtection);
}

TEST_F(Transitions, NeenterFromUntrustedFails)
{
    const auto* rec = world_->kernel.enclaveRecord(pair_.inner->secsPage());
    hw::Paddr innerTcs = 0;
    for (const auto& [va, pa] : rec->pages) {
        const auto& e = world_->machine.epcm().entry(
            world_->machine.mem().epcPageIndex(pa));
        if (e.type == sgx::PageType::Tcs) {
            innerTcs = pa;
            break;
        }
    }
    EXPECT_EQ(world_->machine.neenter(0, innerTcs).code(),
              Err::GeneralProtection);
}

TEST_F(Transitions, NeexitFromDepthOneFails)
{
    const auto* rec = world_->kernel.enclaveRecord(pair_.outer->secsPage());
    hw::Paddr outerTcs = 0;
    for (const auto& [va, pa] : rec->pages) {
        const auto& e = world_->machine.epcm().entry(
            world_->machine.mem().epcPageIndex(pa));
        if (e.type == sgx::PageType::Tcs) {
            outerTcs = pa;
            break;
        }
    }
    ASSERT_TRUE(world_->machine.eenter(0, outerTcs).isOk());
    EXPECT_EQ(world_->machine.neexit(0).code(), Err::GeneralProtection);
}

TEST_F(Transitions, TcsBusyWhileExecuting)
{
    const auto* rec = world_->kernel.enclaveRecord(pair_.outer->secsPage());
    hw::Paddr outerTcs = 0;
    for (const auto& [va, pa] : rec->pages) {
        const auto& e = world_->machine.epcm().entry(
            world_->machine.mem().epcPageIndex(pa));
        if (e.type == sgx::PageType::Tcs) {
            outerTcs = pa;
            break;
        }
    }
    ASSERT_TRUE(world_->machine.eenter(0, outerTcs).isOk());
    // The same TCS cannot be entered again from another core.
    EXPECT_EQ(world_->machine.eenter(1, outerTcs).code(),
              Err::GeneralProtection);
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
    EXPECT_TRUE(world_->machine.eenter(1, outerTcs).isOk());
}

TEST_F(Transitions, AexAndEresumeRestoreNest)
{
    const auto* recO = world_->kernel.enclaveRecord(pair_.outer->secsPage());
    const auto* recI = world_->kernel.enclaveRecord(pair_.inner->secsPage());
    hw::Paddr outerTcs = 0, innerTcs = 0;
    for (const auto& [va, pa] : recO->pages) {
        const auto& e = world_->machine.epcm().entry(
            world_->machine.mem().epcPageIndex(pa));
        if (e.type == sgx::PageType::Tcs) {
            outerTcs = pa;
            break;
        }
    }
    for (const auto& [va, pa] : recI->pages) {
        const auto& e = world_->machine.epcm().entry(
            world_->machine.mem().epcPageIndex(pa));
        if (e.type == sgx::PageType::Tcs) {
            innerTcs = pa;
            break;
        }
    }

    ASSERT_TRUE(world_->machine.eenter(0, outerTcs).isOk());
    ASSERT_TRUE(world_->machine.neenter(0, innerTcs).isOk());
    EXPECT_EQ(world_->machine.core(0).depth(), 2u);

    // Interrupt: whole nest unwinds, TLB flushed.
    ASSERT_TRUE(world_->machine.aex(0).isOk());
    EXPECT_FALSE(world_->machine.core(0).inEnclaveMode());
    EXPECT_EQ(world_->machine.core(0).tlb().size(), 0u);

    // ERESUME restores both frames.
    ASSERT_TRUE(world_->machine.eresume(0, outerTcs).isOk());
    EXPECT_EQ(world_->machine.core(0).depth(), 2u);
    EXPECT_EQ(world_->machine.core(0).currentSecs(),
              pair_.inner->secsPage());
    ASSERT_TRUE(world_->machine.neexit(0).isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

TEST_F(Transitions, TransitionCostsMatchTable2)
{
    // One empty ecall charges exactly the calibrated round trip (in the
    // config's TLB model — the tagged variant swaps flush for tag switch).
    auto& clock = world_->machine.clock();
    const auto& costs = world_->machine.costs();
    const bool tagged = world_->machine.config().taggedTlb;

    std::uint64_t before = clock.cycles();
    ASSERT_TRUE(world_->urts->ecall(pair_.outer, "echo", {}).isOk());
    EXPECT_EQ(clock.cycles() - before, costs.ecallRoundTrip(tagged));

    // n_ecall round trip on top of an ecall envelope.
    before = clock.cycles();
    ASSERT_TRUE(world_->urts
                    ->ecallChain(std::array{pair_.outer, pair_.inner},
                                 "inner_plain", {})
                    .isOk());
    // Nested calls pass data by reference through the shared outer
    // enclave: no marshalling-copy charge beyond the round trips.
    EXPECT_EQ(clock.cycles() - before,
              costs.ecallRoundTrip(tagged) + costs.nEcallRoundTrip(tagged));
}

TEST_F(Transitions, CallStatsCount)
{
    world_->urts->resetStats();
    ASSERT_TRUE(
        world_->urts->ecall(pair_.outer, "call_inner", bytesOf("d")).isOk());
    const auto& s = world_->urts->stats();
    EXPECT_EQ(s.ecalls, 1u);
    EXPECT_EQ(s.nEcalls, 1u);
    EXPECT_EQ(s.nOcalls, 1u);
    EXPECT_EQ(s.ocalls, 0u);
}

/**
 * Out-of-order leaf sequences around AEX/ERESUME and teardown, checked
 * in both TLB configurations: ERESUME must re-run EENTER-grade
 * validation (saved frames are not a capability), and teardown ordering
 * must never wedge TCS busy flags or resurrect destroyed enclaves.
 */
class TransitionEdgeCases : public ::testing::TestWithParam<bool> {
  protected:
    void SetUp() override
    {
        auto config = World::smallConfig();
        config.taggedTlb = GetParam();
        world_ = std::make_unique<World>(config);
        pair_ = loadNestedPair(*world_, tinySpec("edge-outer"),
                               tinySpec("edge-inner"));
        outerTcs_ = firstTcs(pair_.outer);
        innerTcs_ = firstTcs(pair_.inner);
        ASSERT_NE(outerTcs_, 0u);
        ASSERT_NE(innerTcs_, 0u);
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

    std::unique_ptr<World> world_;
    NestedPair pair_;
    hw::Paddr outerTcs_ = 0;
    hw::Paddr innerTcs_ = 0;
};

TEST_P(TransitionEdgeCases, DoubleEresumeFails)
{
    auto& machine = world_->machine;
    ASSERT_TRUE(machine.eenter(0, outerTcs_).isOk());
    ASSERT_TRUE(machine.aex(0).isOk());

    ASSERT_TRUE(machine.eresume(0, outerTcs_).isOk());
    ASSERT_TRUE(machine.eexit(0).isOk());

    // The first ERESUME consumed the saved frames; a second resume of
    // the same TCS has nothing to restore and must fault, not replay.
    EXPECT_EQ(machine.eresume(1, outerTcs_).code(), Err::GeneralProtection);
    EXPECT_FALSE(machine.core(1).inEnclaveMode());
    EXPECT_EQ(machine.stats().eresumeCount, 1u);
}

TEST_P(TransitionEdgeCases, EresumeIntoRemovedEnclaveFails)
{
    auto& machine = world_->machine;
    // Save a two-deep nest [outer, inner] into the outer TCS.
    ASSERT_TRUE(machine.eenter(0, outerTcs_).isOk());
    ASSERT_TRUE(machine.neenter(0, innerTcs_).isOk());
    ASSERT_TRUE(machine.aex(0).isOk());

    // With no core inside, the OS can destroy the inner enclave...
    ASSERT_TRUE(
        world_->kernel.destroyEnclave(pair_.inner->secsPage()).isOk());

    // ...after which the saved nest references a dead enclave: resuming
    // it would hand the thread EPC frames the OS may have reused.
    EXPECT_EQ(machine.eresume(0, outerTcs_).code(), Err::GeneralProtection);
    EXPECT_FALSE(machine.core(0).inEnclaveMode());

    // Teardown of the outer still completes; the dangling saved nest
    // must not wedge its TCS busy flags forever.
    EXPECT_TRUE(
        world_->kernel.destroyEnclave(pair_.outer->secsPage()).isOk());
}

TEST_P(TransitionEdgeCases, AexAtDepthTwoThenReentry)
{
    auto& machine = world_->machine;
    ASSERT_TRUE(machine.eenter(0, outerTcs_).isOk());
    ASSERT_TRUE(machine.neenter(0, innerTcs_).isOk());
    ASSERT_TRUE(machine.aex(0).isOk());

    // Both TCSes stay busy while the nest is parked in the outer TCS:
    // another thread must not be able to squat on either slot.
    EXPECT_EQ(machine.eenter(1, outerTcs_).code(), Err::GeneralProtection);
    EXPECT_EQ(machine.eenter(1, innerTcs_).code(), Err::GeneralProtection);

    // ERESUME restores the full nest with the inner on top.
    ASSERT_TRUE(machine.eresume(0, outerTcs_).isOk());
    EXPECT_EQ(machine.core(0).depth(), 2u);
    EXPECT_EQ(machine.core(0).currentSecs(), pair_.inner->secsPage());
    ASSERT_TRUE(machine.neexit(0).isOk());
    ASSERT_TRUE(machine.eexit(0).isOk());

    // Fully unwound, both TCSes are reusable again.
    ASSERT_TRUE(machine.eenter(1, outerTcs_).isOk());
    EXPECT_TRUE(machine.eexit(1).isOk());
}

TEST_P(TransitionEdgeCases, TeardownWhileNestedIsRefusedThenSucceeds)
{
    auto& machine = world_->machine;
    ASSERT_TRUE(machine.eenter(0, outerTcs_).isOk());
    ASSERT_TRUE(machine.neenter(0, innerTcs_).isOk());

    // The OS tries to rip the outer enclave out from under the nest:
    // pages are in use, the record must survive for a later retry.
    EXPECT_FALSE(world_->kernel.destroyEnclave(pair_.outer->secsPage()));
    ASSERT_NE(world_->kernel.enclaveRecord(pair_.outer->secsPage()), nullptr);

    // The running nest is unharmed: NEEXIT and EEXIT still work.
    ASSERT_TRUE(machine.neexit(0).isOk());
    ASSERT_TRUE(machine.eexit(0).isOk());

    // Unwound, teardown completes in inner-then-outer order, and no TCS
    // is left wedged busy.
    EXPECT_TRUE(
        world_->kernel.destroyEnclave(pair_.inner->secsPage()).isOk());
    EXPECT_TRUE(
        world_->kernel.destroyEnclave(pair_.outer->secsPage()).isOk());
    for (const auto& [pa, tcs] : machine.tcsTable()) {
        EXPECT_FALSE(tcs.busy) << "TCS wedged busy after teardown";
    }
}

INSTANTIATE_TEST_SUITE_P(TlbModes, TransitionEdgeCases, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "taggedTlb" : "flushTlb";
                         });

}  // namespace
}  // namespace nesgx::test
