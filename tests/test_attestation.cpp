/**
 * Attestation tests: EREPORT/NEREPORT MACs, EGETKEY derivations, and the
 * nested-association attestation policy of paper §IV-E / §VII-B — a
 * challenger learns (and can reject) the outer binding and the set of
 * sibling inner enclaves.
 */
#include <gtest/gtest.h>

#include <array>

#include "core/attest.h"
#include "harness.h"

namespace nesgx::test {
namespace {

class Attestation : public ::testing::Test {
  protected:
    void SetUp() override
    {
        world_ = std::make_unique<World>();

        auto outerSpec = tinySpec("at-outer");
        auto innerSpec = tinySpec("at-inner");
        innerSpec.interface->addNEcall(
            "report",
            [](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
                sgx::TargetInfo target;
                std::copy(arg.begin(), arg.begin() + 32,
                          target.mrenclave.begin());
                sgx::ReportData data{};
                data[0] = 0x7e;
                auto report = env.getNestedReport(target, data);
                if (!report) return report.status();
                // Serialize the MAC'd body + relations + mac for the test.
                Bytes out = report.value().macBody();
                append(out, ByteView(report.value().mac.data(), 32));
                return out;
            });
        pair_ = loadNestedPair(*world_, outerSpec, innerSpec);
    }

    void enter(sdk::LoadedEnclave* enclave)
    {
        const auto* rec = world_->kernel.enclaveRecord(enclave->secsPage());
        for (const auto& [va, pa] : rec->pages) {
            const auto& e = world_->machine.epcm().entry(
                world_->machine.mem().epcPageIndex(pa));
            if (e.type == sgx::PageType::Tcs) {
                ASSERT_TRUE(world_->machine.eenter(0, pa).isOk());
                return;
            }
        }
        FAIL() << "no TCS";
    }

    std::unique_ptr<World> world_;
    NestedPair pair_;
};

TEST_F(Attestation, EreportCarriesIdentity)
{
    enter(pair_.outer);
    sgx::TargetInfo target;
    target.mrenclave = pair_.inner->mrenclave();
    sgx::ReportData data{};
    auto report = world_->machine.ereport(0, target, data);
    ASSERT_TRUE(report.isOk());
    EXPECT_EQ(report.value().mrenclave, pair_.outer->mrenclave());
    EXPECT_EQ(report.value().mrsigner, pair_.outer->mrsigner());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

TEST_F(Attestation, ReportMacVerifiesForTargetOnly)
{
    enter(pair_.outer);
    sgx::TargetInfo target;
    target.mrenclave = pair_.inner->mrenclave();
    sgx::ReportData data{};
    auto report = world_->machine.ereport(0, target, data);
    ASSERT_TRUE(report.isOk());
    // The intended target verifies; any other identity does not.
    EXPECT_TRUE(world_->machine.verifyReport(report.value(),
                                             pair_.inner->mrenclave()));
    EXPECT_FALSE(world_->machine.verifyReport(report.value(),
                                              pair_.outer->mrenclave()));
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

TEST_F(Attestation, TamperedReportRejected)
{
    enter(pair_.outer);
    sgx::TargetInfo target;
    target.mrenclave = pair_.inner->mrenclave();
    sgx::ReportData data{};
    auto report = world_->machine.ereport(0, target, data);
    ASSERT_TRUE(report.isOk());
    sgx::Report tampered = report.value();
    tampered.reportData[0] ^= 1;
    EXPECT_FALSE(world_->machine.verifyReport(tampered,
                                              pair_.inner->mrenclave()));
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

TEST_F(Attestation, NereportAttestsAssociations)
{
    // From the outer enclave: the report lists the inner's measurement.
    enter(pair_.outer);
    sgx::TargetInfo target;
    target.mrenclave = pair_.outer->mrenclave();  // self-targeted is fine
    sgx::ReportData data{};
    auto report = world_->machine.nereport(0, target, data);
    ASSERT_TRUE(report.isOk());
    EXPECT_FALSE(report.value().nested());
    EXPECT_EQ(report.value().chainDepth, 0u);
    ASSERT_EQ(report.value().innerMeasurements.size(), 1u);
    EXPECT_EQ(report.value().innerMeasurements[0],
              pair_.inner->mrenclave());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

TEST_F(Attestation, NereportFromInnerNamesOuter)
{
    enter(pair_.inner);  // direct entry (Fig. 5)
    sgx::TargetInfo target;
    target.mrenclave = pair_.outer->mrenclave();
    sgx::ReportData data{};
    auto report = world_->machine.nereport(0, target, data);
    ASSERT_TRUE(report.isOk());
    EXPECT_TRUE(report.value().nested());
    EXPECT_EQ(report.value().chainDepth, 1u);
    EXPECT_EQ(report.value().outerMeasurement, pair_.outer->mrenclave());
    EXPECT_TRUE(report.value().innerMeasurements.empty());
    EXPECT_TRUE(world_->machine.verifyNestedReport(
        report.value(), pair_.outer->mrenclave()));
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

TEST_F(Attestation, PolicyVerificationAcceptsExpectedTopology)
{
    enter(pair_.inner);
    sgx::TargetInfo target;
    target.mrenclave = pair_.outer->mrenclave();
    sgx::ReportData data{};
    auto report = world_->machine.nereport(0, target, data);
    ASSERT_TRUE(report.isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());

    core::AttestationPolicy policy;
    policy.expectedMrEnclave = pair_.inner->mrenclave();
    policy.expectedOuter = pair_.outer->mrenclave();
    auto result = core::verifyNestedAttestation(
        world_->machine, report.value(), pair_.outer->mrenclave(), policy);
    EXPECT_TRUE(result.macValid);
    EXPECT_TRUE(result.identityMatch);
    EXPECT_TRUE(result.outerMatch);
    EXPECT_TRUE(result.trusted());
}

TEST_F(Attestation, PolicyRejectsWrongOuterBinding)
{
    enter(pair_.inner);
    sgx::TargetInfo target;
    target.mrenclave = pair_.outer->mrenclave();
    sgx::ReportData data{};
    auto report = world_->machine.nereport(0, target, data);
    ASSERT_TRUE(report.isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());

    core::AttestationPolicy policy;
    policy.expectedMrEnclave = pair_.inner->mrenclave();
    policy.expectedOuter = pair_.inner->mrenclave();  // wrong expectation
    auto result = core::verifyNestedAttestation(
        world_->machine, report.value(), pair_.outer->mrenclave(), policy);
    EXPECT_FALSE(result.outerMatch);
    EXPECT_FALSE(result.trusted());
}

TEST_F(Attestation, PolicyFlagsUnexpectedSiblingInner)
{
    // Attest the outer: its only inner is at-inner; a policy that allows
    // no inners must flag it.
    enter(pair_.outer);
    sgx::TargetInfo target;
    target.mrenclave = pair_.outer->mrenclave();
    sgx::ReportData data{};
    auto report = world_->machine.nereport(0, target, data);
    ASSERT_TRUE(report.isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());

    core::AttestationPolicy policy;
    policy.expectedMrEnclave = pair_.outer->mrenclave();
    // no allowed inners
    auto strict = core::verifyNestedAttestation(
        world_->machine, report.value(), pair_.outer->mrenclave(), policy);
    EXPECT_FALSE(strict.noUnexpectedInners);

    policy.allowedInners.push_back(pair_.inner->mrenclave());
    auto relaxed = core::verifyNestedAttestation(
        world_->machine, report.value(), pair_.outer->mrenclave(), policy);
    EXPECT_TRUE(relaxed.noUnexpectedInners);
}

TEST_F(Attestation, ChainDepthDistinguishesDepth3FromDepth2)
{
    // Build a depth-3 chain A -> B -> C (signer-based expectations so
    // association order is free) and report from every level.
    World world;
    std::vector<sdk::LoadedEnclave*> levels;
    sdk::SignedEnclave prevImage;
    for (int i = 0; i < 3; ++i) {
        auto spec = tinySpec("depth-" + std::to_string(i));
        spec.allowedInners.push_back(expectSigner(authorKey()));
        if (i > 0) spec.expectedOuter = expectSigner(authorKey());
        spec.interface->addNEcall(
            "depth_report",
            [](sdk::TrustedEnv& env, ByteView) -> Result<Bytes> {
                sgx::TargetInfo target;
                target.mrenclave = env.enclave().mrenclave();
                auto report = env.getNestedReport(target, {});
                if (!report) return report.status();
                Bytes out(4);
                storeLe32(out.data(), report.value().chainDepth);
                return out;
            });
        auto loaded =
            world.urts->load(sdk::buildImage(spec, authorKey()), spec.interface)
                .orThrow("load level");
        if (i > 0) {
            world.urts->associate(loaded, levels.back()).orThrow("assoc");
        }
        levels.push_back(loaded);
    }

    auto depthAt = [&](std::vector<sdk::LoadedEnclave*> chain) {
        auto raw = world.urts->ecallChain(chain, "depth_report", {});
        EXPECT_TRUE(raw.isOk()) << raw.status().name();
        return raw.isOk() ? loadLe32(raw.value().data()) : ~0u;
    };
    EXPECT_EQ(depthAt({levels[0]}), 0u);
    EXPECT_EQ(depthAt({levels[0], levels[1]}), 1u);
    EXPECT_EQ(depthAt({levels[0], levels[1], levels[2]}), 2u);

    // A policy pinning the exact chain depth tells the two apart even
    // when the outer measurement matches.
    enter(pair_.inner);
    sgx::TargetInfo target;
    target.mrenclave = pair_.outer->mrenclave();
    auto report = world_->machine.nereport(0, target, {});
    ASSERT_TRUE(report.isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());

    core::AttestationPolicy policy;
    policy.expectedMrEnclave = pair_.inner->mrenclave();
    policy.expectedOuter = pair_.outer->mrenclave();
    policy.expectedChainDepth = 1;
    auto ok = core::verifyNestedAttestation(
        world_->machine, report.value(), pair_.outer->mrenclave(), policy);
    EXPECT_TRUE(ok.depthMatch);
    EXPECT_TRUE(ok.trusted());

    policy.expectedChainDepth = 2;  // demands depth 3; this is depth 2
    auto rejected = core::verifyNestedAttestation(
        world_->machine, report.value(), pair_.outer->mrenclave(), policy);
    EXPECT_TRUE(rejected.macValid);
    EXPECT_FALSE(rejected.depthMatch);
    EXPECT_FALSE(rejected.trusted());
}

TEST_F(Attestation, ChainDepthIsMacProtected)
{
    enter(pair_.inner);
    sgx::TargetInfo target;
    target.mrenclave = pair_.outer->mrenclave();
    auto report = world_->machine.nereport(0, target, {});
    ASSERT_TRUE(report.isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());

    // Forging a deeper (or shallower) chain breaks the MAC.
    sgx::NestedReport forged = report.value();
    forged.chainDepth = 2;
    EXPECT_FALSE(world_->machine.verifyNestedReport(
        forged, pair_.outer->mrenclave()));
}

TEST_F(Attestation, NereportViaSdkEnvWorks)
{
    Bytes arg(pair_.inner->mrenclave().begin(),
              pair_.inner->mrenclave().end());
    auto raw = world_->urts->ecallChain(std::array{pair_.outer, pair_.inner},
                                        "report", arg);
    ASSERT_TRUE(raw.isOk()) << raw.status().name();
    EXPECT_GT(raw.value().size(), 32u);
}

TEST_F(Attestation, EgetkeyOnlyInsideEnclave)
{
    EXPECT_FALSE(world_->machine.egetkeyReport(0).isOk());
    enter(pair_.outer);
    auto key = world_->machine.egetkeyReport(0);
    ASSERT_TRUE(key.isOk());
    // The in-enclave report key equals the derivation verifiers use.
    auto viaSelf = world_->machine.egetkeyReport(0);
    EXPECT_EQ(key.value(), viaSelf.value());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
}

TEST_F(Attestation, SealKeyBoundToSigner)
{
    enter(pair_.outer);
    auto outerSeal = world_->machine.egetkeySeal(0);
    ASSERT_TRUE(outerSeal.isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());

    enter(pair_.inner);
    auto innerSeal = world_->machine.egetkeySeal(0);
    ASSERT_TRUE(innerSeal.isOk());
    ASSERT_TRUE(world_->machine.eexit(0).isOk());

    // Same author => same seal key (sealed-data migration across
    // versions); MRSIGNER-bound as in SGX.
    EXPECT_EQ(outerSeal.value(), innerSeal.value());
}

}  // namespace
}  // namespace nesgx::test
