#include "attest/verifier.h"

#include "crypto/kdf.h"
#include "crypto/sha256.h"
#include "support/wire.h"

namespace nesgx::attest {

Bytes
sessionKeyFromSeal(const crypto::Sha256Digest& seal, std::uint32_t tenantId)
{
    auto key = crypto::deriveKey128(ByteView(seal.data(), seal.size()),
                                    "tenant-session",
                                    WireWriter(4).u32(tenantId).take());
    return Bytes(key.begin(), key.end());
}

Bytes
sessionSealKey(const crypto::Sha256Digest& seal)
{
    auto key = crypto::deriveKey128(ByteView(seal.data(), seal.size()),
                                    "tenant-session-seal", ByteView());
    return Bytes(key.begin(), key.end());
}

Bytes
migrationTransportKey(const crypto::Sha256Digest& seal,
                      const sgx::Measurement& peerMr)
{
    auto key = crypto::deriveKey128(ByteView(seal.data(), seal.size()),
                                    "migrate-transport",
                                    ByteView(peerMr.data(), peerMr.size()));
    return Bytes(key.begin(), key.end());
}

Bytes
encodeNestedReport(const sgx::NestedReport& report)
{
    const Bytes body = report.macBody();
    return WireWriter(body.size() + 64)
        .bytes(body).bytes(report.base.mac).bytes(report.mac).take();
}

Result<sgx::NestedReport>
decodeNestedReport(ByteView blob)
{
    // NestedReport::macBody's fields in its order, then the two MACs.
    WireReader r(blob);
    sgx::NestedReport report;
    r.fill(report.base.mrenclave);
    r.fill(report.base.mrsigner);
    report.base.attributes = r.u64();
    r.fill(report.base.reportData);
    report.chainDepth = r.u32();
    r.fill(report.outerMeasurement);
    for (auto* list : {&report.outerMeasurements, &report.innerMeasurements}) {
        list->resize(r.count(32));
        for (auto& m : *list) r.fill(m);
    }
    r.fill(report.base.mac);
    r.fill(report.mac);
    if (!r.done()) return Err::BadCallBuffer;
    return report;
}

const sgx::Measurement&
defaultVerifierMeasurement()
{
    static const sgx::Measurement mr = [] {
        const char* label = "nesgx-onboarding-verifier";
        return crypto::Sha256::hash(ByteView(
            reinterpret_cast<const std::uint8_t*>(label), 25));
    }();
    return mr;
}

TenantVerifier::TenantVerifier(sgx::Machine& machine, std::uint64_t nonceSeed)
    : machine_(machine),
      measurement_(defaultVerifierMeasurement()),
      nonceRng_(nonceSeed)
{
}

Bytes
TenantVerifier::nextNonce()
{
    return nonceRng_.bytes(kNonceSize);
}

Verdict
TenantVerifier::verify(std::uint32_t tenantId, const sgx::NestedReport& report,
                       const TenantPolicy& policy, ByteView nonce) const
{
    Verdict verdict;

    core::AttestationPolicy chainPolicy;
    chainPolicy.expectedMrEnclave = policy.expectedMrEnclave;
    chainPolicy.expectedOuter = policy.expectedOuter;
    chainPolicy.expectedChainDepth = policy.expectedChainDepth;
    // Onboarding happens one tenant at a time before the gateway fills
    // up, so we tolerate only the attested enclave itself as an inner
    // population (the report is the inner's own, which attests *its*
    // inners: a tenant inner must have none).
    verdict.chain = core::verifyNestedAttestation(machine_, report,
                                                  measurement_, chainPolicy);

    verdict.signerMatch =
        constantTimeEqual(ByteView(report.base.mrsigner.data(), 32),
                          ByteView(policy.expectedMrSigner.data(), 32));

    const crypto::Sha256Digest nonceHash = crypto::Sha256::hash(nonce);
    verdict.nonceBound =
        nonce.size() == kNonceSize &&
        constantTimeEqual(ByteView(report.base.reportData.data(), 32),
                          ByteView(nonceHash.data(), 32));

    // Recompute the session key the genuine identity would derive and
    // check the evidence binds exactly that key.
    const crypto::Sha256Digest seal = machine_.identitySealingKey(
        report.base.mrenclave, report.base.mrsigner);
    Bytes expectedKey = sessionKeyFromSeal(seal, tenantId);
    const crypto::Sha256Digest keyHash =
        crypto::Sha256::hash(ByteView(expectedKey.data(), expectedKey.size()));
    verdict.keyBound =
        constantTimeEqual(ByteView(report.base.reportData.data() + 32, 32),
                          ByteView(keyHash.data(), 32));

    if (verdict.trusted()) verdict.sessionKey = std::move(expectedKey);
    return verdict;
}

}  // namespace nesgx::attest
