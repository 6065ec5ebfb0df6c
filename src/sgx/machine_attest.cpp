/**
 * Attestation leaves: EREPORT, NEREPORT, EGETKEY (paper §IV-B, §IV-E).
 *
 * NEREPORT extends EREPORT with the association relations: a challenger
 * attesting an outer enclave learns the measurements of every inner
 * enclave sharing it, and an inner enclave's report names its outer.
 */
#include "sgx/machine.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "crypto/kdf.h"
#include "support/wire.h"

namespace nesgx::sgx {

Bytes
Report::macBody() const
{
    return WireWriter(32 + 32 + 8 + kReportDataSize)
        .bytes(mrenclave).bytes(mrsigner).u64(attributes).bytes(reportData)
        .take();
}

Bytes
NestedReport::macBody() const
{
    WireWriter w;
    w.bytes(base.macBody()).u32(chainDepth).bytes(outerMeasurement);
    for (const auto* list : {&outerMeasurements, &innerMeasurements}) {
        w.u32(std::uint32_t(list->size()));
        for (const auto& m : *list) w.bytes(m);
    }
    return w.take();
}

crypto::Sha256Digest
Machine::reportKeyFor(const Measurement& targetMr) const
{
    // The report key derives from the device root and the *target*
    // enclave identity, so only the target can re-derive it via EGETKEY.
    return crypto::deriveKey256(rootKey_, "report-key",
                                ByteView(targetMr.data(), 32));
}

Result<Report>
Machine::ereport(hw::CoreId coreId, const TargetInfo& target,
                 const ReportData& data)
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Ereport, coreId, 0,
                      [&] { return ereportImpl(coreId, target, data); });
}

Result<Report>
Machine::ereportImpl(hw::CoreId coreId, const TargetInfo& target,
                     const ReportData& data)
{
    charge(costs_.ereport);
    hw::Core& core = cores_[coreId];
    if (!core.inEnclaveMode()) return Err::GeneralProtection;
    const Secs* secs = secsAt(core.currentSecs());
    if (!secs) return Err::GeneralProtection;

    Report report;
    report.mrenclave = secs->mrenclave;
    report.mrsigner = secs->mrsigner;
    report.attributes = secs->attributes;
    report.reportData = data;

    crypto::Sha256Digest key = reportKeyFor(target.mrenclave);
    report.mac = crypto::hmacSha256(ByteView(key.data(), key.size()),
                                    report.macBody());
    return report;
}

Result<NestedReport>
Machine::nereport(hw::CoreId coreId, const TargetInfo& target,
                  const ReportData& data)
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Nereport, coreId, 0,
                      [&] { return nereportImpl(coreId, target, data); });
}

Result<NestedReport>
Machine::nereportImpl(hw::CoreId coreId, const TargetInfo& target,
                      const ReportData& data)
{
    charge(costs_.ereport);
    hw::Core& core = cores_[coreId];
    if (!core.inEnclaveMode()) return Err::GeneralProtection;
    const Secs* secs = secsAt(core.currentSecs());
    if (!secs) return Err::GeneralProtection;

    NestedReport report;
    report.base.mrenclave = secs->mrenclave;
    report.base.mrsigner = secs->mrsigner;
    report.base.attributes = secs->attributes;
    report.base.reportData = data;

    // Association relations: the paper's NEREPORT "includes the
    // association relationship of the target enclaves" (§IV-B) — the
    // outer's measurement plus the measurements of every inner enclave
    // sharing this enclave (§IV-E remote attestation).
    bool primarySet = false;
    for (hw::Paddr outerPa : secs->outerEids) {
        if (const Secs* outer = secsAt(outerPa)) {
            if (!primarySet) {
                primarySet = true;
                report.outerMeasurement = outer->mrenclave;  // primary
            }
            report.outerMeasurements.push_back(outer->mrenclave);
        }
    }
    // chainDepth counts live hops along the primary-outer chain, so a
    // depth-3 tenant's report is distinguishable from a depth-2 one.
    // Bounded by the live-SECS count: a corrupted cyclic association
    // graph terminates instead of hanging the leaf.
    const std::size_t maxHops = secsTable_.size();
    const Secs* hop = secs;
    while (hop && report.chainDepth < maxHops) {
        const Secs* outer = nullptr;
        for (hw::Paddr outerPa : hop->outerEids) {
            if ((outer = secsAt(outerPa)) != nullptr) break;
        }
        if (!outer) break;
        ++report.chainDepth;
        hop = outer;
    }
    for (hw::Paddr innerPa : secs->innerEids) {
        if (const Secs* inner = secsAt(innerPa)) {
            report.innerMeasurements.push_back(inner->mrenclave);
        }
    }

    crypto::Sha256Digest key = reportKeyFor(target.mrenclave);
    report.mac = crypto::hmacSha256(ByteView(key.data(), key.size()),
                                    report.macBody());
    return report;
}

Result<crypto::Sha256Digest>
Machine::egetkeyReport(hw::CoreId coreId)
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Egetkey, coreId, 0,
                      [&] { return egetkeyReportImpl(coreId); });
}

Result<crypto::Sha256Digest>
Machine::egetkeyReportImpl(hw::CoreId coreId)
{
    charge(costs_.egetkey);
    hw::Core& core = cores_[coreId];
    if (!core.inEnclaveMode()) return Err::GeneralProtection;
    const Secs* secs = secsAt(core.currentSecs());
    if (!secs) return Err::GeneralProtection;
    return reportKeyFor(secs->mrenclave);
}

Result<crypto::Sha256Digest>
Machine::egetkeySeal(hw::CoreId coreId)
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Egetkey, coreId, 0,
                      [&] { return egetkeySealImpl(coreId); });
}

Result<crypto::Sha256Digest>
Machine::egetkeySealImpl(hw::CoreId coreId)
{
    charge(costs_.egetkey);
    hw::Core& core = cores_[coreId];
    if (!core.inEnclaveMode()) return Err::GeneralProtection;
    const Secs* secs = secsAt(core.currentSecs());
    if (!secs) return Err::GeneralProtection;
    return crypto::deriveKey256(rootKey_, "seal-key",
                                ByteView(secs->mrsigner.data(), 32));
}

Result<crypto::Sha256Digest>
Machine::egetkeySealIdentity(hw::CoreId coreId)
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Egetkey, coreId, 0,
                      [&] { return egetkeySealIdentityImpl(coreId); });
}

Result<crypto::Sha256Digest>
Machine::egetkeySealIdentityImpl(hw::CoreId coreId)
{
    charge(costs_.egetkey);
    hw::Core& core = cores_[coreId];
    if (!core.inEnclaveMode()) return Err::GeneralProtection;
    const Secs* secs = secsAt(core.currentSecs());
    if (!secs) return Err::GeneralProtection;
    return identitySealingKey(secs->mrenclave, secs->mrsigner);
}

crypto::Sha256Digest
Machine::identitySealingKey(const Measurement& mrenclave,
                            const Measurement& mrsigner) const
{
    std::array<std::uint8_t, 64> context{};
    std::copy(mrenclave.begin(), mrenclave.end(), context.begin());
    std::copy(mrsigner.begin(), mrsigner.end(), context.begin() + 32);
    return crypto::deriveKey256(rootKey_, "seal-key-identity",
                                ByteView(context.data(), context.size()));
}

bool
Machine::verifyReport(const Report& report, const Measurement& targetMr) const
{
    crypto::Sha256Digest key = reportKeyFor(targetMr);
    crypto::Sha256Digest mac = crypto::hmacSha256(
        ByteView(key.data(), key.size()), report.macBody());
    return constantTimeEqual(ByteView(mac.data(), 32),
                             ByteView(report.mac.data(), 32));
}

bool
Machine::verifyNestedReport(const NestedReport& report,
                            const Measurement& targetMr) const
{
    crypto::Sha256Digest key = reportKeyFor(targetMr);
    crypto::Sha256Digest mac = crypto::hmacSha256(
        ByteView(key.data(), key.size()), report.macBody());
    return constantTimeEqual(ByteView(mac.data(), 32),
                             ByteView(report.mac.data(), 32));
}

}  // namespace nesgx::sgx
