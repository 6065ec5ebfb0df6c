/**
 * EPC paging leaves: EBLOCK, ETRACK, EWB, ELDU (paper §IV-E).
 *
 * The nested-enclave delta lives in trackedCores(): evicting an outer
 * enclave's page must also flush cores running its *inner* enclaves,
 * because inner threads legitimately cache outer translations.
 */
#include "fault/injector.h"
#include "sgx/machine.h"
#include "support/wire.h"

namespace nesgx::sgx {

Bytes
EvictedPage::aad() const
{
    return WireWriter(4 * 8)
        .u64(ownerEid).u64(vaddr).u64(perms.bits()).u64(version).take();
}

Status
Machine::eblock(hw::Paddr epcPage)
{
    // Paging leaves are structural writers: exclusive. Acquisition also
    // quiesces every simulated core (see stateMutex_ in machine.h), so
    // the cross-core TLB sweeps below cannot race an in-flight access.
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Eblock, trace::kNoCore, epcPage,
                      [&] { return eblockImpl(epcPage); });
}

Status
Machine::eblockImpl(hw::Paddr epcPage)
{
    if (!mem_.inPrm(epcPage)) return Err::GeneralProtection;
    EpcmEntry& entry = epcm_.entry(mem_.epcPageIndex(epcPage));
    if (!entry.valid || entry.type != PageType::Reg) {
        return Err::InvalidEpcPage;
    }
    {
        // Stripe hold keeps shared-mode snapshot readers torn-free.
        auto stripe = epcm_.lockFrame(mem_.epcPageIndex(epcPage));
        entry.blocked = true;
    }
    // A blocked page must stop being reachable through cached
    // translations. Under the tagged TLB this matters even on cores that
    // already left the enclave — their entries survived the exit.
    invalidateTlbForPage(epcPage);
    return Status::ok();
}

Status
Machine::etrack(hw::Paddr secsPage)
{
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Etrack, trace::kNoCore, secsPage,
                      [&] { return etrackImpl(secsPage); });
}

Status
Machine::etrackImpl(hw::Paddr secsPage)
{
    Secs* secs = secsAt(secsPage);
    if (!secs) return Err::GeneralProtection;
    // Snapshot every core that may hold stale translations; cores drop out
    // of the set when their TLB is flushed (any enclave exit/IPI).
    auto cores = trackedCores(secsPage);
    {
        std::lock_guard<std::mutex> t(trackingMutex_);
        secs->trackingSet.clear();
        secs->trackingSet.insert(cores.begin(), cores.end());
        secs->trackingActive = true;
    }
    return Status::ok();
}

Result<EvictedPage>
Machine::ewb(hw::Paddr epcPage)
{
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Ewb, trace::kNoCore, epcPage,
                      [&] { return ewbImpl(epcPage); });
}

Result<EvictedPage>
Machine::ewbImpl(hw::Paddr epcPage)
{
    charge(costs_.ewbPage);
    if (!mem_.inPrm(epcPage)) return Err::GeneralProtection;
    EpcmEntry& entry = epcm_.entry(mem_.epcPageIndex(epcPage));
    if (!entry.valid || entry.type != PageType::Reg) {
        return Err::InvalidEpcPage;
    }
    if (!entry.blocked) return Err::PageInUse;

    Secs* secs = secsAt(entry.ownerSecs);
    if (!secs) return Err::InvalidEpcPage;
    // Every thread that may cache the stale translation must have left
    // enclave mode (and thus flushed) since ETRACK.
    {
        std::lock_guard<std::mutex> t(trackingMutex_);
        if (!secs->trackingActive || !secs->trackingSet.empty()) {
            return Err::TrackingIncomplete;
        }
    }

    EvictedPage out;
    out.vaddr = entry.vaddr;
    out.type = entry.type;
    out.perms = entry.perms;
    out.ownerEid = secs->eid;
    out.versionSlot = nextVersionSlot_++;
    out.version = 1;
    versionArray_[out.versionSlot] = out.version;
    rng_.fill(out.iv.data(), out.iv.size());

    // The page leaves the PRM for untrusted memory: real authenticated
    // encryption binds content to (owner, vaddr, perms, version) so the
    // OS can neither read, modify, swap, nor replay it.
    out.ciphertext = pagingGcm_->seal(
        ByteView(out.iv.data(), out.iv.size()), out.aad(),
        ByteView(mem_.raw(epcPage), hw::kPageSize));

    mem_.fill(epcPage, 0, hw::kPageSize);
    {
        auto stripe = epcm_.lockFrame(mem_.epcPageIndex(epcPage));
        entry = EpcmEntry{};
    }
#ifndef NESGX_BUG_SECS_PAGES_STALE
    --secs->epcPages;
#endif
    // Belt and braces: the frame is zeroed and free; no core may keep a
    // translation into it (EBLOCK already swept, but an ELDU between
    // EBLOCK and EWB could have revalidated in another context).
    invalidateTlbForPage(epcPage);

    // Injected storage faults model the untrusted side mangling the blob
    // after it leaves the PRM: a ciphertext bit-flip (ELDU's GCM open
    // must refuse) or version-array slot loss (replay check must refuse).
    // Either way the *hardware* stays honest — the damage only surfaces
    // as PagingIntegrity at reload time.
    if (faultFires(fault::FaultSite::EwbCorrupt)) {
        out.ciphertext[out.ciphertext.size() / 2] ^= 0x40;
    }
    if (faultFires(fault::FaultSite::EwbDropSlot)) {
        versionArray_.erase(out.versionSlot);
    }
    return out;
}

Status
Machine::eldu(hw::Paddr epcPage, hw::Paddr secsPage, const EvictedPage& blob)
{
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Eldu, trace::kNoCore, epcPage,
                      [&] { return elduImpl(epcPage, secsPage, blob); });
}

Status
Machine::elduImpl(hw::Paddr epcPage, hw::Paddr secsPage, const EvictedPage& blob)
{
    if (faultFires(fault::FaultSite::ElduFail)) {
        return Err::PagingIntegrity;
    }
    charge(costs_.elduPage);
    if (!mem_.inPrm(epcPage)) return Err::GeneralProtection;
    EpcmEntry& entry = epcm_.entry(mem_.epcPageIndex(epcPage));
    if (entry.valid) return Err::PageInUse;

    Secs* secs = secsAt(secsPage);
    if (!secs) return Err::GeneralProtection;
    // The blob must belong to this enclave (ids never recycle).
    if (blob.ownerEid != secs->eid) return Err::PagingIntegrity;

    // Replay protection: the version-array slot must still hold the
    // version EWB recorded; reloading consumes it.
    auto it = versionArray_.find(blob.versionSlot);
    if (it == versionArray_.end() || it->second != blob.version) {
        return Err::PagingIntegrity;
    }

    auto plain = pagingGcm_->open(ByteView(blob.iv.data(), blob.iv.size()),
                                  blob.aad(), blob.ciphertext);
    if (!plain) return Err::PagingIntegrity;
    if (plain.value().size() != hw::kPageSize) return Err::PagingIntegrity;

    versionArray_.erase(it);
    mem_.write(epcPage, plain.value().data(), hw::kPageSize);
    {
        auto stripe = epcm_.lockFrame(mem_.epcPageIndex(epcPage));
        entry = EpcmEntry{};
        entry.valid = true;
        entry.type = blob.type;
        entry.ownerSecs = secsPage;
        entry.vaddr = blob.vaddr;
        entry.perms = blob.perms;
    }
    ++secs->epcPages;
    return Status::ok();
}

}  // namespace nesgx::sgx
