/**
 * ENCLS lifecycle leaves: ECREATE, EADD, EEXTEND, EINIT, EREMOVE, NASSO.
 */
#include <algorithm>

#include "fault/injector.h"
#include "sgx/machine.h"

namespace nesgx::sgx {

namespace {

bool
pageAligned(std::uint64_t v)
{
    return (v & (hw::kPageSize - 1)) == 0;
}

}  // namespace

Status
Machine::ecreate(hw::Paddr secsPage, hw::Vaddr baseAddr, std::uint64_t size,
                 std::uint64_t attributes)
{
    // Lifecycle leaves rewrite the structural tables (EPCM, SECS/TCS
    // maps, association graph): exclusive against every other leaf.
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Ecreate, trace::kNoCore, secsPage,
                      [&] { return ecreateImpl(secsPage, baseAddr, size, attributes); });
}

Status
Machine::ecreateImpl(hw::Paddr secsPage, hw::Vaddr baseAddr, std::uint64_t size,
                 std::uint64_t attributes)
{
    if (faultFires(fault::FaultSite::EcreateFail)) {
        return Err::GeneralProtection;
    }
    charge(costs_.ecreate);
    if (!mem_.inPrm(secsPage) || !pageAligned(secsPage)) {
        return Err::GeneralProtection;
    }
    // ELRANGE must be contiguous, size-aligned and page-granular (§II-B).
    if (!pageAligned(baseAddr) || !pageAligned(size) || size == 0) {
        return Err::GeneralProtection;
    }
    EpcmEntry& entry = epcm_.entry(mem_.epcPageIndex(secsPage));
    if (entry.valid) return Err::PageInUse;

    {
        auto stripe = epcm_.lockFrame(mem_.epcPageIndex(secsPage));
        entry = EpcmEntry{};
        entry.valid = true;
        entry.type = PageType::Secs;
        entry.ownerSecs = secsPage;  // SECS pages own themselves
        entry.vaddr = 0;
    }

    Secs secs;
    secs.eid = nextEid_++;
    secs.baseAddr = baseAddr;
    secs.size = size;
    secs.attributes = attributes;
    secs.epcPages = 1;  // the SECS page itself
    secs.measurementLog.recordCreate(size);
    secsTable_[secsPage] = std::move(secs);
    return Status::ok();
}

Status
Machine::eadd(hw::Paddr secsPage, hw::Paddr epcPage, hw::Vaddr vaddr,
              PageType type, PagePerms perms, ByteView src)
{
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Eadd, trace::kNoCore, epcPage,
                      [&] { return eaddImpl(secsPage, epcPage, vaddr, type, perms, src); });
}

Status
Machine::eaddImpl(hw::Paddr secsPage, hw::Paddr epcPage, hw::Vaddr vaddr,
              PageType type, PagePerms perms, ByteView src)
{
    if (faultFires(fault::FaultSite::EaddFail)) {
        return Err::GeneralProtection;
    }
    charge(costs_.eadd);
    Secs* secs = secsAt(secsPage);
    if (!secs || secs->initialized) return Err::GeneralProtection;
    if (!mem_.inPrm(epcPage) || !pageAligned(epcPage) || !pageAligned(vaddr)) {
        return Err::GeneralProtection;
    }
    if (type == PageType::Secs) return Err::GeneralProtection;
    // The page's virtual address must fall inside the enclave's ELRANGE;
    // that layout is fixed by the author and measured (§II-B).
    if (!secs->inELRange(vaddr)) return Err::GeneralProtection;
    if (!src.empty() && src.size() != hw::kPageSize) {
        return Err::GeneralProtection;
    }

    EpcmEntry& entry = epcm_.entry(mem_.epcPageIndex(epcPage));
    if (entry.valid) return Err::PageInUse;

    {
        auto stripe = epcm_.lockFrame(mem_.epcPageIndex(epcPage));
        entry = EpcmEntry{};
        entry.valid = true;
        entry.type = type;
        entry.ownerSecs = secsPage;
        entry.vaddr = vaddr;
        entry.perms = (type == PageType::Tcs) ? PagePerms{false, false, false}
                                              : perms;
    }
    ++secs->epcPages;

    if (src.empty()) {
        mem_.fill(epcPage, 0, hw::kPageSize);
    } else {
        mem_.write(epcPage, src.data(), src.size());
    }
    if (type == PageType::Tcs) {
        tcsTable_.erase(epcPage);
        tcsTable_.try_emplace(epcPage);
    }

    secs->measurementLog.recordAdd(vaddr - secs->baseAddr, type, perms);
    return Status::ok();
}

Status
Machine::eextend(hw::Paddr secsPage, hw::Paddr epcPage)
{
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Eextend, trace::kNoCore, epcPage,
                      [&] { return eextendImpl(secsPage, epcPage); });
}

Status
Machine::eextendImpl(hw::Paddr secsPage, hw::Paddr epcPage)
{
    Secs* secs = secsAt(secsPage);
    if (!secs || secs->initialized) return Err::GeneralProtection;
    if (!mem_.inPrm(epcPage)) return Err::GeneralProtection;
    const EpcmEntry& entry = epcm_.entry(mem_.epcPageIndex(epcPage));
    if (!entry.valid || entry.ownerSecs != secsPage) {
        return Err::InvalidEpcPage;
    }

    // Real EEXTEND measures one 256-byte chunk per invocation; the model
    // folds the whole page (16 chunks) and charges per chunk. The memo
    // replays the host work of a fold it has seen byte for byte after
    // the same prefix; the measurement and the charges are the same.
    for (std::uint64_t off = 0; off < hw::kPageSize; off += kMeasureChunk) {
        charge(costs_.eextendChunk);
    }
    pageFolds_.extendPage(secs->measurementLog, entry.vaddr - secs->baseAddr,
                          mem_.raw(epcPage));
    return Status::ok();
}

Status
Machine::einit(hw::Paddr secsPage, const SigStruct& sig)
{
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Einit, trace::kNoCore, secsPage,
                      [&] { return einitImpl(secsPage, sig); });
}

Status
Machine::einitImpl(hw::Paddr secsPage, const SigStruct& sig)
{
    charge(costs_.einit);
    Secs* secs = secsAt(secsPage);
    if (!secs || secs->initialized) return Err::GeneralProtection;

    // 1. The author's signature over the SIGSTRUCT body must verify.
    if (!sig.verify()) return Err::InvalidSignature;

    // 2. The measured enclave must match the author's expected digest.
    Measurement measured = secs->measurementLog.finalize();
    if (!constantTimeEqual(ByteView(measured.data(), 32),
                           ByteView(sig.enclaveHash.data(), 32))) {
        return Err::InvalidMeasurement;
    }
    if (sig.attributes != secs->attributes) return Err::InvalidMeasurement;

    secs->mrenclave = measured;
    secs->mrsigner = sig.signerMeasurement();
    // Copy the author-signed association expectations into hardware state
    // so NASSO later validates against tamper-proof values (paper §IV-C).
    secs->expectedOuter = sig.expectedOuter;
    secs->allowedInners = sig.allowedInners;
    secs->initialized = true;
    return Status::ok();
}

Status
Machine::eremove(hw::Paddr epcPage)
{
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Eremove, trace::kNoCore, epcPage,
                      [&] { return eremoveImpl(epcPage); });
}

Status
Machine::eremoveImpl(hw::Paddr epcPage)
{
    if (!mem_.inPrm(epcPage)) return Err::GeneralProtection;
    std::uint64_t index = mem_.epcPageIndex(epcPage);
    EpcmEntry& entry = epcm_.entry(index);
    if (!entry.valid) return Err::InvalidEpcPage;

    if (entry.type == PageType::Secs) {
        // A SECS leaves last: all child pages must be gone, no live
        // *inner* associations, and no core may be executing in the
        // enclave. An inner enclave with outers may leave: its edges are
        // detached here, which is the association-teardown path.
        Secs* secs = secsAt(epcPage);
        if (secs && secs->epcPages > 1) return Err::PageInUse;
        if (secs && !secs->innerEids.empty()) return Err::PageInUse;
        if (!trackedCores(epcPage).empty()) return Err::PageInUse;
        if (secs) {
            for (hw::Paddr outerPa : secs->outerEids) {
                if (Secs* outer = secsAt(outerPa)) {
                    auto& inners = outer->innerEids;
                    inners.erase(
                        std::remove(inners.begin(), inners.end(), epcPage),
                        inners.end());
                }
            }
        }
        secsTable_.erase(epcPage);
        // Tagged entries validated under this context must never be
        // served to a later enclave reusing the same SECS frame.
        invalidateTlbForSecs(epcPage);
        // The association graph changed shape: memoized closures of any
        // former inner are stale.
        invalidateClosureCache();
    } else {
        if (!trackedCores(entry.ownerSecs).empty()) return Err::PageInUse;
        if (entry.type == PageType::Tcs) {
            auto it = tcsTable_.find(epcPage);
            if (it != tcsTable_.end()) {
                // Removing a TCS that holds an AEX-saved nest destroys
                // the only path that could ever resume it: release the
                // busy flag of every TCS in the saved frames so the rest
                // of the nest is not wedged busy forever.
#ifndef NESGX_BUG_EREMOVE_WEDGE
                for (const auto& frame : it->second.savedFrames) {
                    if (frame.tcs == epcPage) continue;
                    // Release only TCSes still belonging to the frame's
                    // recorded enclave generation: a stale frame's PA may
                    // have been recycled into a different enclave's TCS,
                    // whose busy flag is not this nest's to clear.
                    const Secs* owner = secsAt(frame.secs);
                    if (!owner || owner->eid != frame.eid) continue;
                    Tcs* t = tcsAt(frame.tcs);
                    if (t && epcm_.entry(mem_.epcPageIndex(frame.tcs))
                                     .ownerSecs == frame.secs) {
                        t->busy = false;
                    }
                }
#endif
                tcsTable_.erase(it);
            }
        }
        if (Secs* owner = secsAt(entry.ownerSecs)) --owner->epcPages;
    }
    {
        auto stripe = epcm_.lockFrame(index);
        entry = EpcmEntry{};
    }
    // The frame returns to the free pool; no TLB on any core may still
    // translate to it (the EPCM no longer vouches for the mapping).
    invalidateTlbForPage(epcPage);
    return Status::ok();
}

Status
Machine::nasso(hw::Paddr innerSecsPage, hw::Paddr outerSecsPage)
{
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Nasso, trace::kNoCore, innerSecsPage,
                      [&] { return nassoImpl(innerSecsPage, outerSecsPage); });
}

Status
Machine::nassoImpl(hw::Paddr innerSecsPage, hw::Paddr outerSecsPage)
{
    charge(costs_.nasso);
    Secs* inner = secsAt(innerSecsPage);
    Secs* outer = secsAt(outerSecsPage);
    if (!inner || !outer || innerSecsPage == outerSecsPage) {
        return Err::GeneralProtection;
    }
    if (!inner->initialized || !outer->initialized) {
        return Err::GeneralProtection;
    }
    // Single-outer-per-inner by default (paper §IV-A); an inner built
    // with kAttrMultiOuter may join several outers (paper §VIII).
    if (!inner->outerEids.empty() &&
        !(inner->attributes & kAttrMultiOuter)) {
        return Err::GeneralProtection;
    }
    if (inner->hasOuter(outerSecsPage)) return Err::GeneralProtection;
    // No cycles: the outer must not (transitively) nest inside the inner.
    if (outerSecsPage == innerSecsPage) return Err::GeneralProtection;
    for (hw::Paddr reachable : outerClosure(outerSecsPage)) {
        if (reachable == innerSecsPage) return Err::GeneralProtection;
    }

    // Mutual validation against the author-signed expectations carried in
    // each enclave's signed file (paper Fig. 4): the inner names its
    // expected outer, the outer lists the inners allowed to join.
    if (!inner->expectedOuter ||
        !inner->expectedOuter->matches(outer->mrenclave, outer->mrsigner)) {
        return Err::AssociationRejected;
    }
    bool allowed = false;
    for (const auto& pe : outer->allowedInners) {
        if (pe.matches(inner->mrenclave, inner->mrsigner)) {
            allowed = true;
            break;
        }
    }
    if (!allowed) return Err::AssociationRejected;

    inner->outerEids.push_back(outerSecsPage);
    outer->innerEids.push_back(innerSecsPage);
    // The graph gained an edge: every memoized closure that could reach
    // the inner is stale (and the cycle check above may have populated
    // the pre-edge closure of the outer).
    invalidateClosureCache();
    // A translation the inner validated *before* the association (e.g. a
    // non-EPC page now shadowed by the new outer's ELRANGE) must be
    // re-validated under the post-NASSO rules.
    invalidateTlbForSecs(innerSecsPage);
    return Status::ok();
}

}  // namespace nesgx::sgx
