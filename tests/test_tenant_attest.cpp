/**
 * Trust-path tests: EGETKEY identity sealing-key derivation (stable
 * across enclave rebuilds, distinct across identities and owners, in
 * both TLB-tag modes), the NEREPORT evidence codec, the TenantVerifier
 * policy checks (depth, outer binding, signer, nonce freshness, session
 * key binding), and attestation-gated onboarding through the serving
 * stack — including session-key continuity across a tenant rebuild.
 */
#include <gtest/gtest.h>

#include <set>

#include "attest/verifier.h"
#include "core/compose.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/service.h"

namespace nesgx::test {
namespace {

using serve::TenantId;
using serve::Workload;

/** World with the TLB mode under test. */
std::unique_ptr<World>
makeWorld(bool taggedTlb)
{
    auto config = World::smallConfig();
    config.taggedTlb = taggedTlb;
    return std::make_unique<World>(config);
}

/** Spec whose single ecall returns the enclave's EGETKEY identity
 *  sealing key (the in-enclave view the infrastructure must match). */
sdk::EnclaveSpec
sealKeySpec(const std::string& name)
{
    auto spec = tinySpec(name);
    spec.interface->addEcall(
        "sealkey", [](sdk::TrustedEnv& env, ByteView) -> Result<Bytes> {
            auto key = env.getSealKeyIdentity();
            if (!key) return key.status();
            return Bytes(key.value().begin(), key.value().end());
        });
    return spec;
}

Bytes
sealKeyOf(World& world, sdk::LoadedEnclave* enclave)
{
    auto out = world.urts->ecall(enclave, "sealkey", Bytes{});
    EXPECT_TRUE(out.isOk()) << errName(out.code());
    return out.isOk() ? out.value() : Bytes{};
}

class SealKey : public ::testing::TestWithParam<bool> {};

TEST_P(SealKey, StableAcrossRebuildsOfTheSameIdentity)
{
    auto world = makeWorld(GetParam());
    auto spec = sealKeySpec("sk-a");
    auto image = sdk::buildImage(spec, authorKey());

    auto* first = world->urts->load(image, spec.interface).orThrow("load");
    Bytes key = sealKeyOf(*world, first);
    ASSERT_EQ(key.size(), 32u);
    // The infrastructure view (same root of trust, no enclave entry)
    // derives the identical key from the identity alone.
    auto infra = world->machine.identitySealingKey(first->mrenclave(),
                                                   first->mrsigner());
    EXPECT_EQ(key, Bytes(infra.begin(), infra.end()));

    // Destroy and rebuild from the same signed image: EGETKEY is a
    // derivation, not storage, so the fresh instance re-derives the
    // exact same key — what makes sealed state survive rebuilds and
    // migrations at all.
    ASSERT_TRUE(world->urts->unload(first).isOk());
    auto* second = world->urts->load(image, spec.interface).orThrow("reload");
    EXPECT_EQ(sealKeyOf(*world, second), key);
}

TEST_P(SealKey, DiffersAcrossMeasurements)
{
    auto world = makeWorld(GetParam());
    auto specB = sealKeySpec("sk-c");
    specB.codePages += 1;  // different content -> different MRENCLAVE
    auto specA = sealKeySpec("sk-b");
    auto imageA = sdk::buildImage(specA, authorKey());
    auto imageB = sdk::buildImage(specB, authorKey());
    ASSERT_NE(imageA->mrenclave, imageB->mrenclave);

    auto* a = world->urts->load(imageA, specA.interface).orThrow("load a");
    auto* b = world->urts->load(imageB, specB.interface).orThrow("load b");
    EXPECT_NE(sealKeyOf(*world, a), sealKeyOf(*world, b));
}

TEST_P(SealKey, DiffersAcrossOwners)
{
    auto world = makeWorld(GetParam());
    // Identical content, different author: MRENCLAVE matches but the
    // key is bound to MRSIGNER too, so a rival author's byte-identical
    // enclave cannot unseal the original's state.
    auto spec = sealKeySpec("sk-d");
    auto imageA = sdk::buildImage(spec, authorKey());
    auto imageB = sdk::buildImage(spec, otherAuthorKey());
    ASSERT_EQ(imageA->mrenclave, imageB->mrenclave);

    auto* a = world->urts->load(imageA, spec.interface).orThrow("load a");
    auto* b = world->urts->load(imageB, spec.interface).orThrow("load b");
    EXPECT_NE(sealKeyOf(*world, a), sealKeyOf(*world, b));
}

INSTANTIATE_TEST_SUITE_P(TlbModes, SealKey, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "taggedTlb" : "flushTlb";
                         });

/** Fixture with one registry-built tenant and its provisioning
 *  evidence decoded — the raw material for policy-level checks. */
class VerifierPolicy : public ::testing::Test {
  protected:
    void SetUp() override
    {
        world_ = std::make_unique<World>();
        registry_ = std::make_unique<serve::TenantRegistry>(
            *world_->urts, serve::TenantRegistry::Config{});
        verifier_ =
            std::make_unique<attest::TenantVerifier>(world_->machine);
        tenant_ = registry_->ensure(7, Workload::Echo).orThrow("ensure");
        nonce_ = verifier_->nextNonce();
        auto evidence = registry_->provisionInner(
            tenant_->inner, verifier_->measurement(), nonce_);
        ASSERT_TRUE(evidence.isOk()) << errName(evidence.code());
        auto report = attest::decodeNestedReport(evidence.value());
        ASSERT_TRUE(report.isOk()) << errName(report.code());
        report_ = report.value();
    }

    attest::TenantPolicy goodPolicy() const
    {
        attest::TenantPolicy policy;
        policy.expectedMrEnclave = tenant_->inner->mrenclave();
        policy.expectedMrSigner =
            core::defaultAuthorKey().pub.signerMeasurement();
        policy.expectedOuter =
            registry_->gatewayOuter(tenant_->gatewayIndex)->mrenclave();
        policy.expectedChainDepth = 1;  // flat topology: gateway -> tenant
        return policy;
    }

    std::unique_ptr<World> world_;
    std::unique_ptr<serve::TenantRegistry> registry_;
    std::unique_ptr<attest::TenantVerifier> verifier_;
    serve::TenantHandle* tenant_ = nullptr;
    Bytes nonce_;
    sgx::NestedReport report_;
};

TEST_F(VerifierPolicy, GenuineEvidenceTrusted)
{
    auto verdict = verifier_->verify(7, report_, goodPolicy(), nonce_);
    EXPECT_TRUE(verdict.chain.macValid);
    EXPECT_TRUE(verdict.chain.identityMatch);
    EXPECT_TRUE(verdict.chain.outerMatch);
    EXPECT_TRUE(verdict.chain.depthMatch);
    EXPECT_TRUE(verdict.signerMatch);
    EXPECT_TRUE(verdict.nonceBound);
    EXPECT_TRUE(verdict.keyBound);
    ASSERT_TRUE(verdict.trusted());
    // The recovered session key is exactly the infrastructure
    // derivation from the enclave's identity sealing key.
    auto seal = world_->machine.identitySealingKey(
        tenant_->inner->mrenclave(), tenant_->inner->mrsigner());
    EXPECT_EQ(verdict.sessionKey, attest::sessionKeyFromSeal(seal, 7));
}

TEST_F(VerifierPolicy, CodecRoundTripsAndRejectsTruncation)
{
    Bytes wire = attest::encodeNestedReport(report_);
    auto back = attest::decodeNestedReport(wire);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(attest::encodeNestedReport(back.value()), wire);
    for (std::size_t cut : {std::size_t(1), wire.size() / 2}) {
        auto bad = attest::decodeNestedReport(
            ByteView(wire.data(), wire.size() - cut));
        EXPECT_FALSE(bad.isOk());
    }
}

TEST_F(VerifierPolicy, DepthMismatchRejected)
{
    auto policy = goodPolicy();
    policy.expectedChainDepth = 2;  // demands a CVM-hosted instance
    auto verdict = verifier_->verify(7, report_, policy, nonce_);
    EXPECT_FALSE(verdict.chain.depthMatch);
    EXPECT_FALSE(verdict.trusted());
}

TEST_F(VerifierPolicy, WrongOuterRejected)
{
    auto policy = goodPolicy();
    policy.expectedOuter = tenant_->inner->mrenclave();  // not a gateway
    auto verdict = verifier_->verify(7, report_, policy, nonce_);
    EXPECT_FALSE(verdict.chain.outerMatch);
    EXPECT_FALSE(verdict.trusted());
}

TEST_F(VerifierPolicy, WrongSignerRejected)
{
    auto policy = goodPolicy();
    policy.expectedMrSigner = otherAuthorKey().pub.signerMeasurement();
    auto verdict = verifier_->verify(7, report_, policy, nonce_);
    EXPECT_FALSE(verdict.signerMatch);
    EXPECT_FALSE(verdict.trusted());
}

TEST_F(VerifierPolicy, StaleNonceRejected)
{
    Bytes fresh = verifier_->nextNonce();  // evidence carries the old one
    auto verdict = verifier_->verify(7, report_, goodPolicy(), fresh);
    EXPECT_FALSE(verdict.nonceBound);
    EXPECT_FALSE(verdict.trusted());
}

TEST_F(VerifierPolicy, KeyBindingIsPerTenant)
{
    // Same enclave, same nonce, different claimed tenant id: the
    // session-key binding hash no longer matches.
    auto verdict = verifier_->verify(8, report_, goodPolicy(), nonce_);
    EXPECT_FALSE(verdict.keyBound);
    EXPECT_FALSE(verdict.trusted());
}

TEST_F(VerifierPolicy, TamperedMacRejected)
{
    auto tampered = report_;
    tampered.mac[0] ^= 1;
    auto verdict = verifier_->verify(7, tampered, goodPolicy(), nonce_);
    EXPECT_FALSE(verdict.chain.macValid);
    EXPECT_FALSE(verdict.trusted());
}

TEST_F(VerifierPolicy, UnverifiedTenantRefusedWhenGated)
{
    // The raw registry: nothing onboards the tenant, so nothing marks it
    // verified.
    serve::TenantRegistry gated(*world_->urts, {});
    auto* tenant = gated.ensure(1, Workload::Echo).orThrow("ensure");
    auto refused = gated.dispatch(*tenant, Bytes{1, 2, 3}, 0);
    EXPECT_EQ(refused.code(), Err::AttestationFailed);
    tenant->verified = true;
    // Now it fails for protocol reasons (garbage batch), not the gate.
    EXPECT_NE(gated.dispatch(*tenant, Bytes{1, 2, 3}, 0).code(),
              Err::AttestationFailed);
}

/** Attested onboarding end to end through the service facade. */
class AttestedService : public ::testing::TestWithParam<bool> {};

TEST_P(AttestedService, OnboardsServesAndSurvivesRebuildWithSameKey)
{
    auto world = makeWorld(GetParam());
    serve::TenantService::Config sc;
    sc.attestOnboarding = true;
    serve::TenantService service(*world->urts, sc);

    ASSERT_TRUE(service.addTenant(3, Workload::Echo).isOk());
    Bytes key = service.sessionKeyFor(3);
    ASSERT_EQ(key.size(), 16u);
    EXPECT_NE(key, serve::tenantKey(3));  // no out-of-band secret

    // The client seals with the attested session key from day one.
    serve::TenantClient client(3, Workload::Echo, key);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(service.submit(3, client.nextRequest()).isOk());
    }
    service.pump();
    std::uint64_t verified = 0;
    for (auto& done : service.drain()) {
        if (client.onResponse(done.sealedResponse)) ++verified;
    }
    EXPECT_EQ(verified, 4u);

    // A poisoned-tenant rebuild re-provisions the fresh instance: the
    // key is an EGETKEY derivation, so the client's copy still works.
    auto* tenant = service.registry().find(3);
    ASSERT_TRUE(service.registry().rebuildTenant(*tenant).isOk());
    EXPECT_EQ(service.sessionKeyFor(3), key);
    client.onTenantRebuilt();  // same key, so the sequence runs on
    ASSERT_TRUE(service.submit(3, client.nextRequest()).isOk());
    service.pump();
    for (auto& done : service.drain()) {
        EXPECT_TRUE(client.onResponse(done.sealedResponse));
    }
    EXPECT_EQ(client.failures(), 0u);
}

TEST_P(AttestedService, DepthPolicyMismatchRefusesOnboarding)
{
    auto world = makeWorld(GetParam());
    serve::TenantService::Config sc;
    sc.attestOnboarding = true;
    // Flat topology serves depth-1 inners; demanding depth 3 models a
    // client policy written for a deeper deployment. Onboarding must
    // fail closed and tear the staged instance back down.
    sc.attestDepthOverride = 3;
    serve::TenantService service(*world->urts, sc);

    auto refused = service.addTenant(4, Workload::Echo);
    EXPECT_EQ(refused.code(), Err::AttestationFailed);
    EXPECT_EQ(service.registry().find(4), nullptr);
    EXPECT_TRUE(service.sessionKeyFor(4).empty());
}

TEST_P(AttestedService, WrongKeyClientCannotRide)
{
    auto world = makeWorld(GetParam());
    serve::TenantService::Config sc;
    sc.attestOnboarding = true;
    serve::TenantService service(*world->urts, sc);
    ASSERT_TRUE(service.addTenant(5, Workload::Echo).isOk());

    // A client still on the legacy out-of-band key (or any wrong key)
    // cannot produce seals the attested instance accepts.
    serve::TenantClient impostor(5, Workload::Echo);
    ASSERT_TRUE(service.submit(5, impostor.nextRequest()).isOk());
    service.pump();
    for (auto& done : service.drain()) {
        EXPECT_FALSE(done.ok);
        EXPECT_FALSE(impostor.onResponse(done.sealedResponse));
    }
    EXPECT_GT(impostor.failures(), 0u);
}

TEST_P(AttestedService, RebuildNeverReusesASequenceNumber)
{
    auto world = makeWorld(GetParam());
    serve::TenantService::Config sc;
    sc.attestOnboarding = true;
    serve::TenantService service(*world->urts, sc);
    ASSERT_TRUE(service.addTenant(3, Workload::Echo).isOk());
    const Bytes key = service.sessionKeyFor(3);
    const crypto::AesGcm gcm(key);
    serve::TenantClient client(3, Workload::Echo, key);

    // A request's sequence number is its GCM IV, and its response's: the
    // server seals the reply under the request's sequence. The key
    // outlives the rebuild, so no sequence may come round twice.
    std::set<std::uint64_t> seqs;
    auto round = [&] {
        Bytes request = client.nextRequest();
        auto opened = serve::openMessage(gcm, 3, serve::kDirRequest, request);
        ASSERT_TRUE(opened.isOk());
        EXPECT_TRUE(seqs.insert(opened.value().seq).second)
            << "sequence " << opened.value().seq << " sealed twice";
        ASSERT_TRUE(service.submit(3, std::move(request)).isOk());
        service.pump();
        for (auto& done : service.drain()) {
            EXPECT_TRUE(client.onResponse(done.sealedResponse));
        }
    };
    round();
    round();
    auto* tenant = service.registry().find(3);
    ASSERT_TRUE(service.registry().rebuildTenant(*tenant).isOk());
    ASSERT_EQ(service.sessionKeyFor(3), key);
    client.onTenantRebuilt();
    // The fresh instance accepts the running sequence as its first.
    round();
    round();
    EXPECT_EQ(client.verified(), 4u);
    EXPECT_EQ(client.failures(), 0u);
}

TEST_P(AttestedService, LiveTenantRefusesSessionReset)
{
    auto world = makeWorld(GetParam());
    serve::TenantService::Config sc;
    sc.attestOnboarding = true;
    serve::TenantService service(*world->urts, sc);
    ASSERT_TRUE(service.addTenant(3, Workload::Echo).isOk());
    serve::TenantRegistry& registry = service.registry();
    serve::TenantHandle* tenant = registry.find(3);
    sdk::LoadedEnclave* inner = tenant->inner;

    // A mode the provisioning call does not define is refused, not run
    // as an attestation.
    Bytes badMode(1 + 32 + attest::kNonceSize, 0);
    badMode[0] = 3;
    EXPECT_EQ(world->urts
                  ->ecallChain(world->urts->chainTo(inner),
                               "tenant_provision", badMode)
                  .code(),
              Err::BadCallBuffer);

    // A session snapshot taken before the tenant served anything.
    auto early = registry.exportInner(inner, inner->mrenclave());
    ASSERT_TRUE(early.isOk()) << errName(early.code());

    serve::TenantClient client(3, Workload::Echo, service.sessionKeyFor(3));
    const Bytes captured = client.nextRequest();
    auto served = [&](const Bytes& request) {
        EXPECT_TRUE(service.submit(3, request).isOk());
        service.pump();
        auto done = service.drain();
        return done.size() == 1 && done.front().ok;
    };
    ASSERT_TRUE(served(captured));

    // The host tries to reopen the replay window: re-derive the session,
    // attest afresh, or import the early snapshot. The live instance
    // refuses all three.
    EXPECT_EQ(registry.rekeyInner(inner, {}).code(), Err::GeneralProtection);
    attest::TenantVerifier verifier(world->machine);
    EXPECT_EQ(registry
                  .provisionInner(inner, verifier.measurement(),
                                  verifier.nextNonce())
                  .code(),
              Err::GeneralProtection);
    EXPECT_EQ(registry.importInner(inner, inner->mrenclave(), early.value())
                  .code(),
              Err::GeneralProtection);
    // Sealing the live key for later instances resets nothing.
    EXPECT_TRUE(
        registry.adoptSessionKey(*tenant, service.sessionKeyFor(3)).isOk());

    // So the captured request is still a replay, and the session goes on.
    EXPECT_FALSE(served(captured));
    EXPECT_TRUE(served(client.nextRequest()));
}

INSTANTIATE_TEST_SUITE_P(TlbModes, AttestedService, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "taggedTlb" : "flushTlb";
                         });

}  // namespace
}  // namespace nesgx::test
