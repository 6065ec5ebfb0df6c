/**
 * ENCLU transition leaves: EENTER, EEXIT, NEENTER, NEEXIT, AEX, ERESUME
 * (paper §IV-B, Fig. 5 state transitions).
 *
 * Each public leaf is a `tracedLeaf` wrapper around the *Impl body: the
 * bus brackets the body in LeafEnter/LeafExit events, and the successful
 * LeafExit is what feeds the per-transition counters (trace/stats.h) —
 * the bodies themselves no longer touch counters directly.
 */
#include "fault/injector.h"
#include "sgx/chain.h"
#include "sgx/machine.h"

namespace nesgx::sgx {

namespace {

inline trace::TraceEvent
coreEvent(trace::EventKind kind, hw::CoreId core, std::uint64_t eid,
          std::uint64_t arg0 = 0)
{
    trace::TraceEvent event;
    event.kind = kind;
    event.core = core;
    event.eid = eid;
    event.arg0 = arg0;
    return event;
}

}  // namespace

Status
Machine::eenter(hw::CoreId coreId, hw::Paddr tcsPage)
{
    // Transitions run in shared mode: they mutate only their own core's
    // frame stack/TLB and the target TCS busy flag (claimed atomically),
    // never the structural tables — those writers take the lock
    // exclusive.
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Eenter, coreId, tcsPage,
                      [&] { return eenterImpl(coreId, tcsPage); });
}

Status
Machine::eenterImpl(hw::CoreId coreId, hw::Paddr tcsPage)
{
    if (faultFires(fault::FaultSite::EenterFail, coreId)) {
        return Err::GeneralProtection;
    }
    hw::Core& core = cores_[coreId];
    if (core.inEnclaveMode()) return Err::GeneralProtection;
    if (!mem_.inPrm(tcsPage)) return Err::GeneralProtection;

    const EpcmEntry entry = [&] {
        auto stripe = epcm_.lockFrame(mem_.epcPageIndex(tcsPage));
        return epcm_.entry(mem_.epcPageIndex(tcsPage));
    }();
    if (!entry.valid || entry.type != PageType::Tcs || entry.blocked) {
        return Err::GeneralProtection;
    }
    Secs* secs = secsAt(entry.ownerSecs);
    if (!secs || !secs->initialized) return Err::GeneralProtection;
    // The busy check is the claim: nothing after it can fail.
    Tcs* tcs = tcsAt(tcsPage);
    if (!tcs || tcs->busy.exchange(true)) return Err::GeneralProtection;

    charge(costs_.eenterCycles(config_.taggedTlb));
    // The TLB must never *serve* translations validated in a different
    // protection context (invariant 1, paper §VII-A). The flush model
    // enforces that by invalidating everything; the tagged model keeps
    // the entries and relies on the tag-checked lookup instead.
    if (config_.taggedTlb) {
        bus_.publishLight(trace::EventKind::TlbFlushAvoided, coreId,
                          secs->eid);
    } else {
        flushCoreTlbLocked(coreId);
    }
    core.pushFrame(entry.ownerSecs, tcsPage, secs->eid);
    return Status::ok();
}

Status
Machine::eexit(hw::CoreId coreId)
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Eexit, coreId, 0,
                      [&] { return eexitImpl(coreId); });
}

Status
Machine::eexitImpl(hw::CoreId coreId)
{
    hw::Core& core = cores_[coreId];
    if (!core.inEnclaveMode()) return Err::GeneralProtection;
    // Model restriction: synchronous EEXIT only from depth 1; nested
    // frames return through NEEXIT (see machine.h header comment).
    if (core.depth() != 1) return Err::GeneralProtection;

    charge(costs_.eexitCycles(config_.taggedTlb));
    hw::EnclaveFrame frame = core.popFrame();
    if (Tcs* tcs = tcsAt(frame.tcs)) tcs->busy = false;
    if (config_.taggedTlb) {
        bus_.publishLight(trace::EventKind::TlbFlushAvoided, coreId,
                          frame.eid);
    } else {
        flushCoreTlbLocked(coreId);
    }
    return Status::ok();
}

Status
Machine::neenter(hw::CoreId coreId, hw::Paddr tcsPage)
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Neenter, coreId, tcsPage,
                      [&] { return neenterImpl(coreId, tcsPage); });
}

Status
Machine::neenterImpl(hw::CoreId coreId, hw::Paddr tcsPage)
{
    if (faultFires(fault::FaultSite::NeenterFail, coreId)) {
        return Err::GeneralProtection;
    }
    hw::Core& core = cores_[coreId];
    // The core must already execute in enclave mode (the outer enclave).
    if (!core.inEnclaveMode()) return Err::GeneralProtection;
    if (!mem_.inPrm(tcsPage)) return Err::GeneralProtection;

    const EpcmEntry entry = [&] {
        auto stripe = epcm_.lockFrame(mem_.epcPageIndex(tcsPage));
        return epcm_.entry(mem_.epcPageIndex(tcsPage));
    }();
    if (!entry.valid || entry.type != PageType::Tcs || entry.blocked) {
        return Err::GeneralProtection;
    }
    // The destination TCS must belong to an inner enclave of the
    // currently executing enclave (paper §IV-B; under kAttrMultiOuter
    // any of the target's outers qualifies).
    Secs* target = secsAt(entry.ownerSecs);
    if (!target || !target->initialized) return Err::GeneralProtection;
#ifdef NESGX_BUG_CHAIN_SKIP
    // Mutation: skip the adjacency check for hops past the first NEENTER
    // — a depth>=2 core may enter *any* initialized enclave, poisoning
    // the nest that AEX later saves. Caught by the SavedChainValidity
    // oracle rule (the live-frame FrameValidity rule never sees it:
    // ERESUME refuses the poisoned nest, so it only exists saved).
    const bool adjacent = core.depth() >= 2 ||
                          chainAdjacent(*target, core.currentSecs());
#else
    const bool adjacent = chainAdjacent(*target, core.currentSecs());
#endif
    if (!adjacent) return Err::GeneralProtection;
    Tcs* tcs = tcsAt(tcsPage);
    if (!tcs || tcs->busy.exchange(true)) return Err::GeneralProtection;

    charge(costs_.neenterCycles(config_.taggedTlb));
    if (config_.taggedTlb) {
        bus_.publishLight(trace::EventKind::TlbFlushAvoided, coreId,
                          target->eid);
    } else {
        flushCoreTlbLocked(coreId);
    }
    core.pushFrame(entry.ownerSecs, tcsPage, target->eid);
    return Status::ok();
}

Status
Machine::neexit(hw::CoreId coreId)
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    return tracedLeaf(trace::Leaf::Neexit, coreId, 0,
                      [&] { return neexitImpl(coreId); });
}

Status
Machine::neexitImpl(hw::CoreId coreId)
{
    hw::Core& core = cores_[coreId];
    // Only meaningful from an inner frame entered via NEENTER: there must
    // be an outer frame below, and it must be this inner's outer enclave.
    if (core.depth() < 2) return Err::GeneralProtection;
    const Secs* inner = secsAt(core.currentSecs());
    const auto& frames = core.frames();
    if (!inner || !chainAdjacent(*inner, frames[frames.size() - 2].secs)) {
        return Err::GeneralProtection;
    }

    // NEEXIT scrubs all architectural registers, and keeps the inner
    // context's translations out of the outer's reach — by flushing the
    // TLB (§IV-B), or by the tag check when the TLB is context-tagged.
    charge(costs_.neexitCycles(config_.taggedTlb));
    hw::EnclaveFrame frame = core.popFrame();
    if (Tcs* tcs = tcsAt(frame.tcs)) tcs->busy = false;
    if (config_.taggedTlb) {
        bus_.publishLight(trace::EventKind::TlbFlushAvoided, coreId,
                          frame.eid);
    } else {
        flushCoreTlbLocked(coreId);
    }
    return Status::ok();
}

Status
Machine::aex(hw::CoreId coreId)
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    return aexLocked(coreId);
}

Status
Machine::aexLocked(hw::CoreId coreId)
{
    return tracedLeaf(trace::Leaf::Aex, coreId, 0,
                      [&] { return aexImpl(coreId); });
}

Status
Machine::aexImpl(hw::CoreId coreId)
{
    hw::Core& core = cores_[coreId];
    if (!core.inEnclaveMode()) return Err::GeneralProtection;

    charge(costs_.aex);
    // AEX always does the real flush, even with a tagged TLB: the OS
    // takes over the core, and ETRACK's tracking-set drain depends on
    // the flush actually happening (paper §IV-E).
    // The whole nest is saved into the bottom-most TCS so ERESUME can
    // restore execution exactly where the exception hit.
    hw::Paddr bottomTcs = core.frames().front().tcs;
    const std::uint64_t interruptedEid = core.frames().back().eid;
    Tcs* tcs = tcsAt(bottomTcs);
    if (!tcs) {
        // Fail closed: with no bottom TCS there is nowhere to save the
        // nest, and just dropping the frames would leave every TCS in it
        // busy with no core or saved frame accounting for it. Release the
        // busy flags, unwind, and fault.
        for (const auto& frame : core.frames()) {
            if (Tcs* t = tcsAt(frame.tcs)) t->busy = false;
        }
        core.clearFrames();
        flushCoreTlbLocked(coreId);
        trace::TraceEvent event =
            coreEvent(trace::EventKind::AexTaken, coreId, interruptedEid);
        event.code = std::uint16_t(Err::GeneralProtection);
        bus_.publish(event);
        return Err::GeneralProtection;
    }
    tcs->savedFrames = core.frames();
    tcs->hasSavedFrames = true;
    core.clearFrames();
    flushCoreTlbLocked(coreId);
    bus_.publish(coreEvent(trace::EventKind::AexTaken, coreId, interruptedEid,
                           bottomTcs));
    return Status::ok();
}

Status
Machine::eresume(hw::CoreId coreId, hw::Paddr tcsPage)
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    return eresumeLocked(coreId, tcsPage);
}

Status
Machine::eresumeLocked(hw::CoreId coreId, hw::Paddr tcsPage)
{
    return tracedLeaf(trace::Leaf::Eresume, coreId, tcsPage,
                      [&] { return eresumeImpl(coreId, tcsPage); });
}

Status
Machine::eresumeImpl(hw::CoreId coreId, hw::Paddr tcsPage)
{
    hw::Core& core = cores_[coreId];
    if (core.inEnclaveMode()) return Err::GeneralProtection;
    // ERESUME re-runs the EENTER-grade validation: saved frames are not a
    // capability. The TCS must still be a live, unblocked TCS page, and
    // every enclave in the saved nest must still exist in the state the
    // AEX left it in — otherwise stale frames could re-enter an enclave
    // that was EREMOVE'd (and whose EPC frames were reused) since.
    if (!mem_.inPrm(tcsPage)) return Err::GeneralProtection;
#ifndef NESGX_BUG_ERESUME_UNCHECKED
    const EpcmEntry entry = [&] {
        auto stripe = epcm_.lockFrame(mem_.epcPageIndex(tcsPage));
        return epcm_.entry(mem_.epcPageIndex(tcsPage));
    }();
    if (!entry.valid || entry.type != PageType::Tcs || entry.blocked) {
        return Err::GeneralProtection;
    }
#endif
    Tcs* tcs = tcsAt(tcsPage);
    if (!tcs || !tcs->hasSavedFrames) return Err::GeneralProtection;
    const auto& saved = tcs->savedFrames;
#ifndef NESGX_BUG_ERESUME_UNCHECKED
    // The whole saved nest must still be a valid ancestor chain of live,
    // id-matched enclaves (the id check distinguishes the saved enclave
    // from a later one recreated at the same SECS frame — ids are never
    // reused), with the same adjacency NEENTER checked hop by hop. The
    // shared walk keeps the microcode and the oracle's SavedChainValidity
    // rule agreeing on what a resumable nest is.
    if (!validateFrameChain(saved, [&](hw::Paddr pa) { return secsAt(pa); })
             .ok()) {
        return Err::GeneralProtection;
    }
    for (std::size_t i = 0; i < saved.size(); ++i) {
        const EpcmEntry fe = [&] {
            auto stripe = epcm_.lockFrame(mem_.epcPageIndex(saved[i].tcs));
            return epcm_.entry(mem_.epcPageIndex(saved[i].tcs));
        }();
        if (!fe.valid || fe.type != PageType::Tcs ||
            fe.ownerSecs != saved[i].secs || !tcsAt(saved[i].tcs)) {
            return Err::GeneralProtection;
        }
    }
#else
    (void)saved;
#endif

    charge(costs_.eenterCycles(config_.taggedTlb));
    if (config_.taggedTlb) {
        bus_.publishLight(trace::EventKind::TlbFlushAvoided, coreId,
                          saved.empty() ? 0 : saved.back().eid);
    } else {
        flushCoreTlbLocked(coreId);
    }
    for (const auto& frame : tcs->savedFrames) {
        core.pushFrame(frame.secs, frame.tcs, frame.eid);
    }
    tcs->savedFrames.clear();
#ifndef NESGX_BUG_ERESUME_PAIRING
    tcs->hasSavedFrames = false;
#endif
    return Status::ok();
}

void
Machine::ringPoll(hw::CoreId coreId, std::uint64_t ringId)
{
    charge(costs_.ringPoll);
    if (bus_.active()) {
        bus_.publishLight(trace::EventKind::SwitchlessPoll, coreId,
                          coreEid(coreId), ringId);
    } else {
        bus_.countLight(trace::EventKind::SwitchlessPoll, ringId);
    }
}

void
Machine::ringDoorbell(hw::CoreId coreId, std::uint64_t ringId)
{
    // A doorbell is a plain store to the shared word plus the consumer's
    // wake-up: pure cycle cost, no event — the paired SwitchlessPost
    // already records the post itself.
    (void)coreId;
    (void)ringId;
    charge(costs_.ringDoorbell);
}

}  // namespace nesgx::sgx
