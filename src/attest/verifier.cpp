#include "attest/verifier.h"

#include "crypto/kdf.h"
#include "crypto/sha256.h"

namespace nesgx::attest {

namespace {

Bytes
le32(std::uint32_t v)
{
    Bytes out(4);
    storeLe32(out.data(), v);
    return out;
}

void
appendMeasurement(Bytes& out, const sgx::Measurement& m)
{
    append(out, ByteView(m.data(), m.size()));
}

bool
takeMeasurement(ByteView blob, std::size_t& off, sgx::Measurement& out)
{
    if (blob.size() - off < 32) return false;
    std::copy(blob.begin() + off, blob.begin() + off + 32, out.begin());
    off += 32;
    return true;
}

}  // namespace

Bytes
sessionKeyFromSeal(const crypto::Sha256Digest& seal, std::uint32_t tenantId)
{
    std::array<std::uint8_t, 4> id{};
    storeLe32(id.data(), tenantId);
    auto key = crypto::deriveKey128(ByteView(seal.data(), seal.size()),
                                    "tenant-session",
                                    ByteView(id.data(), id.size()));
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
    Bytes out;
    appendMeasurement(out, report.base.mrenclave);
    appendMeasurement(out, report.base.mrsigner);
    Bytes attr(8);
    storeLe64(attr.data(), report.base.attributes);
    append(out, attr);
    append(out, ByteView(report.base.reportData.data(),
                         report.base.reportData.size()));
    append(out, ByteView(report.base.mac.data(), report.base.mac.size()));
    appendMeasurement(out, report.outerMeasurement);
    append(out, le32(report.chainDepth));
    append(out, le32(std::uint32_t(report.outerMeasurements.size())));
    for (const auto& m : report.outerMeasurements) appendMeasurement(out, m);
    append(out, le32(std::uint32_t(report.innerMeasurements.size())));
    for (const auto& m : report.innerMeasurements) appendMeasurement(out, m);
    append(out, ByteView(report.mac.data(), report.mac.size()));
    return out;
}

Result<sgx::NestedReport>
decodeNestedReport(ByteView blob)
{
    sgx::NestedReport report;
    std::size_t off = 0;
    if (!takeMeasurement(blob, off, report.base.mrenclave) ||
        !takeMeasurement(blob, off, report.base.mrsigner)) {
        return Err::BadCallBuffer;
    }
    if (blob.size() - off < 8) return Err::BadCallBuffer;
    report.base.attributes = loadLe64(blob.data() + off);
    off += 8;
    if (blob.size() - off < sgx::kReportDataSize + 32) {
        return Err::BadCallBuffer;
    }
    std::copy(blob.begin() + off, blob.begin() + off + sgx::kReportDataSize,
              report.base.reportData.begin());
    off += sgx::kReportDataSize;
    std::copy(blob.begin() + off, blob.begin() + off + 32,
              report.base.mac.begin());
    off += 32;
    if (!takeMeasurement(blob, off, report.outerMeasurement)) {
        return Err::BadCallBuffer;
    }
    if (blob.size() - off < 8) return Err::BadCallBuffer;
    report.chainDepth = loadLe32(blob.data() + off);
    off += 4;
    std::uint32_t outers = loadLe32(blob.data() + off);
    off += 4;
    // Bound counts by the remaining bytes before allocating.
    if (outers > (blob.size() - off) / 32) return Err::BadCallBuffer;
    report.outerMeasurements.resize(outers);
    for (auto& m : report.outerMeasurements) {
        if (!takeMeasurement(blob, off, m)) return Err::BadCallBuffer;
    }
    if (blob.size() - off < 4) return Err::BadCallBuffer;
    std::uint32_t inners = loadLe32(blob.data() + off);
    off += 4;
    if (inners > (blob.size() - off) / 32) return Err::BadCallBuffer;
    report.innerMeasurements.resize(inners);
    for (auto& m : report.innerMeasurements) {
        if (!takeMeasurement(blob, off, m)) return Err::BadCallBuffer;
    }
    if (blob.size() - off != 32) return Err::BadCallBuffer;
    std::copy(blob.begin() + off, blob.begin() + off + 32,
              report.mac.begin());
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
