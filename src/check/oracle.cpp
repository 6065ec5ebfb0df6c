#include "check/oracle.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "sgx/chain.h"

namespace nesgx::check {

namespace {

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

bool
contains(const std::vector<hw::Paddr>& v, hw::Paddr pa)
{
    return std::find(v.begin(), v.end(), pa) != v.end();
}

/** Fresh, non-memoized outer-closure BFS (excluding the start), used to
 *  cross-check the machine's cached `outerClosure`. */
std::set<hw::Paddr>
freshClosure(const sgx::Machine& machine, hw::Paddr start)
{
    std::set<hw::Paddr> seen;
    std::deque<hw::Paddr> queue;
    if (const sgx::Secs* s = machine.secsAt(start)) {
        for (hw::Paddr pa : s->outerEids) queue.push_back(pa);
    }
    while (!queue.empty()) {
        hw::Paddr pa = queue.front();
        queue.pop_front();
        if (!seen.insert(pa).second) continue;
        if (const sgx::Secs* s = machine.secsAt(pa)) {
            for (hw::Paddr outer : s->outerEids) queue.push_back(outer);
        }
    }
    return seen;
}

}  // namespace

const char*
ruleName(Rule rule)
{
    switch (rule) {
        case Rule::TlbNonEnclavePrm: return "TlbNonEnclavePrm";
        case Rule::TlbOutsideElrange: return "TlbOutsideElrange";
        case Rule::TlbEpcmCoherence: return "TlbEpcmCoherence";
        case Rule::TcsBusyConservation: return "TcsBusyConservation";
        case Rule::FrameValidity: return "FrameValidity";
        case Rule::SavedChainValidity: return "SavedChainValidity";
        case Rule::ClosureCoherence: return "ClosureCoherence";
        case Rule::EpcAccounting: return "EpcAccounting";
        case Rule::KernelRecordCoherence: return "KernelRecordCoherence";
        case Rule::TraceAexResumePairing: return "TraceAexResumePairing";
        case Rule::TraceSwitchlessPairing: return "TraceSwitchlessPairing";
        case Rule::TraceQuiescedWindow: return "TraceQuiescedWindow";
    }
    return "?";
}

std::optional<Violation>
InvariantOracle::check(const sgx::Machine& machine, const os::Kernel& kernel,
                       std::set<hw::Paddr>& orphans) const
{
    if (auto v = checkTlbs(machine)) return v;
    if (auto v = checkBusyFlags(machine)) return v;
    if (auto v = checkFrames(machine)) return v;
    if (auto v = checkSavedChains(machine)) return v;
    if (auto v = checkClosures(machine)) return v;
    if (auto v = checkEpcAccounting(machine, kernel, orphans)) return v;
    if (auto v = checkKernelRecords(machine, kernel, orphans)) return v;
    return std::nullopt;
}

std::optional<Violation>
InvariantOracle::checkTlbs(const sgx::Machine& machine) const
{
    for (hw::CoreId c = 0; c < machine.coreCount(); ++c) {
        for (const auto& [vpn, entry] : machine.core(c).tlb().entries()) {
            hw::Vaddr va = vpn << hw::kPageShift;
            bool inPrm = machine.mem().inPrm(entry.paddr);

            if (entry.validatedSecs == 0) {
                // Invariant 1: untrusted mode never reaches the PRM.
                if (inPrm) {
                    return Violation{
                        Rule::TlbNonEnclavePrm,
                        "core " + std::to_string(c) +
                            ": non-enclave TLB entry va=" + hex(va) +
                            " -> PRM pa=" + hex(entry.paddr)};
                }
                continue;
            }
            const sgx::Secs* secs = machine.secsAt(entry.validatedSecs);
            if (!secs) {
                return Violation{
                    Rule::TlbEpcmCoherence,
                    "core " + std::to_string(c) + ": TLB entry va=" +
                        hex(va) + " tagged with dead SECS " +
                        hex(entry.validatedSecs)};
            }

            // Which reachable enclave's ELRANGE covers this VA?
            hw::Paddr covering = 0;
            if (secs->inELRange(va)) {
                covering = entry.validatedSecs;
            } else {
                for (hw::Paddr outerPa :
                     machine.outerClosure(entry.validatedSecs)) {
                    const sgx::Secs* outer = machine.secsAt(outerPa);
                    if (outer && outer->inELRange(va)) {
                        covering = outerPa;
                        break;
                    }
                }
            }
            if (covering == 0) {
                // Invariant 2: outside every reachable ELRANGE -> no PRM.
                if (inPrm) {
                    return Violation{
                        Rule::TlbOutsideElrange,
                        "core " + std::to_string(c) +
                            ": out-of-ELRANGE entry va=" + hex(va) +
                            " -> PRM pa=" + hex(entry.paddr)};
                }
                continue;
            }
            // Invariants 3/4: the backing frame must be a live, unblocked
            // EPC page of the covering enclave at the recorded VA.
            std::string where = "core " + std::to_string(c) +
                                ": enclave entry va=" + hex(va) + " pa=" +
                                hex(entry.paddr);
            if (!inPrm) {
                return Violation{Rule::TlbEpcmCoherence,
                                 where + " escaped the PRM"};
            }
            const auto& epcmEntry = machine.epcm().entry(
                machine.mem().epcPageIndex(entry.paddr));
            if (!epcmEntry.valid) {
                return Violation{Rule::TlbEpcmCoherence,
                                 where + " maps an invalid EPC frame"};
            }
            if (epcmEntry.blocked) {
                return Violation{Rule::TlbEpcmCoherence,
                                 where + " maps a blocked EPC frame"};
            }
            if (epcmEntry.ownerSecs != covering) {
                return Violation{Rule::TlbEpcmCoherence,
                                 where + " owner " + hex(epcmEntry.ownerSecs) +
                                     " != covering SECS " + hex(covering)};
            }
            if (epcmEntry.vaddr != hw::pageBase(va)) {
                return Violation{Rule::TlbEpcmCoherence,
                                 where + " EPCM vaddr " + hex(epcmEntry.vaddr) +
                                     " != " + hex(hw::pageBase(va))};
            }
        }
    }
    return std::nullopt;
}

std::optional<Violation>
InvariantOracle::checkBusyFlags(const sgx::Machine& machine) const
{
    // A TCS is referenced when a core executes on it, or when a live
    // TCS's AEX-saved nest holds it (resumable). Busy must equal
    // referenced: busy-without-reference is a wedged thread slot (e.g.
    // a teardown path that forgot to release), reference-without-busy
    // means the same TCS could be entered twice.
    std::set<hw::Paddr> referenced;
    for (hw::CoreId c = 0; c < machine.coreCount(); ++c) {
        for (const auto& frame : machine.core(c).frames()) {
            referenced.insert(frame.tcs);
        }
    }
    for (const auto& [pa, tcs] : machine.tcsTable()) {
        if (!tcs.hasSavedFrames) continue;
        for (const auto& frame : tcs.savedFrames) {
            // A stale saved frame — its enclave destroyed or its SECS
            // frame recycled since the AEX — pins nothing: ERESUME will
            // refuse the whole nest, and the frame's TCS PA may since
            // belong to a brand-new (legitimately non-busy) TCS.
            const sgx::Secs* secs = machine.secsAt(frame.secs);
            if (!secs || secs->eid != frame.eid) continue;
            referenced.insert(frame.tcs);
        }
    }
    for (const auto& [pa, tcs] : machine.tcsTable()) {
        bool ref = referenced.count(pa) != 0;
        if (tcs.busy && !ref) {
            return Violation{Rule::TcsBusyConservation,
                             "TCS " + hex(pa) +
                                 " busy but referenced by no core frame or "
                                 "saved nest (wedged)"};
        }
        if (!tcs.busy && ref) {
            return Violation{Rule::TcsBusyConservation,
                             "TCS " + hex(pa) +
                                 " referenced but not busy (double-entry "
                                 "possible)"};
        }
    }
    return std::nullopt;
}

std::optional<Violation>
InvariantOracle::checkFrames(const sgx::Machine& machine) const
{
    for (hw::CoreId c = 0; c < machine.coreCount(); ++c) {
        const auto& frames = machine.core(c).frames();
        for (std::size_t i = 0; i < frames.size(); ++i) {
            std::string where = "core " + std::to_string(c) + " frame " +
                                std::to_string(i);
            const sgx::Secs* secs = machine.secsAt(frames[i].secs);
            if (!secs || !secs->initialized) {
                return Violation{Rule::FrameValidity,
                                 where + ": SECS " + hex(frames[i].secs) +
                                     " dead or uninitialized"};
            }
            if (secs->eid != frames[i].eid) {
                return Violation{
                    Rule::FrameValidity,
                    where + ": SECS " + hex(frames[i].secs) +
                        " eid changed (enclave recreated underneath)"};
            }
            const auto& fe = machine.epcm().entry(
                machine.mem().epcPageIndex(frames[i].tcs));
            if (!fe.valid || fe.type != sgx::PageType::Tcs ||
                fe.ownerSecs != frames[i].secs ||
                !machine.tcsAt(frames[i].tcs)) {
                return Violation{Rule::FrameValidity,
                                 where + ": TCS " + hex(frames[i].tcs) +
                                     " no longer a live TCS of the frame's "
                                     "enclave"};
            }
            if (i > 0 && !secs->hasOuter(frames[i - 1].secs)) {
                return Violation{Rule::FrameValidity,
                                 where + ": no association edge to the "
                                         "frame below"};
            }
        }
    }
    return std::nullopt;
}

std::optional<Violation>
InvariantOracle::checkSavedChains(const sgx::Machine& machine) const
{
    for (const auto& [pa, tcs] : machine.tcsTable()) {
        if (!tcs.hasSavedFrames) continue;
        auto verdict = sgx::validateFrameChain(
            tcs.savedFrames,
            [&](hw::Paddr secsPa) { return machine.secsAt(secsPa); });
        // A parked nest may legitimately go stale — the OS can destroy
        // or recycle an enclave under it, and ERESUME refuses exactly
        // that (DeadSecs / EidMismatch). What can never happen in a
        // correct machine is a broken adjacency between two *live*,
        // eid-matching links: association edges are only ever detached
        // together with their SECS (eremoveImpl), so a saved chain whose
        // links are all alive must still be a chain NEENTER would have
        // built — unless a hop skipped the adjacency check on the way in.
        if (verdict.check == sgx::ChainCheck::BrokenAdjacency) {
            return Violation{
                Rule::SavedChainValidity,
                "nest parked in TCS " + hex(pa) + ": saved frame " +
                    std::to_string(verdict.index) + " of " +
                    std::to_string(tcs.savedFrames.size()) +
                    " has no association edge to the frame below — a "
                    "NEENTER hop entered without adjacency validation"};
        }
    }
    return std::nullopt;
}

std::optional<Violation>
InvariantOracle::checkClosures(const sgx::Machine& machine) const
{
    for (const auto& [pa, secs] : machine.secsTable()) {
        std::set<hw::Paddr> fresh = freshClosure(machine, pa);
        if (fresh.count(pa)) {
            return Violation{Rule::ClosureCoherence,
                             "association cycle through SECS " + hex(pa)};
        }
        const auto& cached = machine.outerClosure(pa);
        std::set<hw::Paddr> cachedSet(cached.begin(), cached.end());
        if (cachedSet != fresh) {
            return Violation{Rule::ClosureCoherence,
                             "memoized closure of SECS " + hex(pa) +
                                 " diverges from a fresh BFS (stale cache)"};
        }
        for (hw::Paddr outerPa : secs.outerEids) {
            const sgx::Secs* outer = machine.secsAt(outerPa);
            if (!outer || !contains(outer->innerEids, pa)) {
                return Violation{Rule::ClosureCoherence,
                                 "outer edge " + hex(pa) + " -> " +
                                     hex(outerPa) + " has no inner back-edge"};
            }
        }
        for (hw::Paddr innerPa : secs.innerEids) {
            const sgx::Secs* inner = machine.secsAt(innerPa);
            if (!inner || !inner->hasOuter(pa)) {
                return Violation{Rule::ClosureCoherence,
                                 "inner edge " + hex(pa) + " -> " +
                                     hex(innerPa) + " has no outer back-edge"};
            }
        }
    }
    return std::nullopt;
}

std::optional<Violation>
InvariantOracle::checkEpcAccounting(const sgx::Machine& machine,
                                    const os::Kernel& kernel,
                                    std::set<hw::Paddr>& orphans) const
{
    std::set<hw::Paddr> freeSet;
    for (hw::Paddr pa : kernel.epcFreeList()) {
        if (!freeSet.insert(pa).second) {
            return Violation{Rule::EpcAccounting,
                             "EPC page " + hex(pa) +
                                 " on the free list twice (double free)"};
        }
    }
    const auto& mem = machine.mem();
    // Heal orphans that resurfaced: once a hostilely-evicted frame is
    // free or re-validated it is a normal page again.
    for (auto it = orphans.begin(); it != orphans.end();) {
        bool valid = machine.epcm().entry(mem.epcPageIndex(*it)).valid;
        if (freeSet.count(*it) || valid) {
            it = orphans.erase(it);
        } else {
            ++it;
        }
    }
    for (std::uint64_t i = 0; i < mem.epcPageCount(); ++i) {
        hw::Paddr pa = mem.epcPageAddr(i);
        bool valid = machine.epcm().entry(i).valid;
        bool free = freeSet.count(pa) != 0;
        if (valid && free) {
            return Violation{Rule::EpcAccounting,
                             "EPC page " + hex(pa) +
                                 " is EPCM-valid and on the free list "
                                 "(use-after-free incoming)"};
        }
        if (!valid && !free && !orphans.count(pa)) {
            return Violation{Rule::EpcAccounting,
                             "EPC page " + hex(pa) +
                                 " neither free nor EPCM-valid (leaked)"};
        }
    }
    // EREMOVE trusts each SECS's own page count; the EPCM scan it
    // replaced is the cross-check.
    for (const auto& [secsPa, secs] : machine.secsTable()) {
        const std::uint64_t owned = machine.epcm().countOwnedBy(secsPa);
        if (secs.epcPages != owned) {
            return Violation{Rule::EpcAccounting,
                             "SECS " + hex(secsPa) + " counts " +
                                 std::to_string(secs.epcPages) +
                                 " EPC pages but the EPCM gives it " +
                                 std::to_string(owned)};
        }
    }
    return std::nullopt;
}

std::optional<Violation>
InvariantOracle::checkKernelRecords(const sgx::Machine& machine,
                                    const os::Kernel& kernel,
                                    const std::set<hw::Paddr>& orphans) const
{
    const auto& mem = machine.mem();
    std::set<hw::Paddr> freeSet(kernel.epcFreeList().begin(),
                                kernel.epcFreeList().end());

    for (const auto& [secsPa, rec] : kernel.enclaveTable()) {
        const auto& se = machine.epcm().entry(mem.epcPageIndex(secsPa));
        if (!se.valid || se.type != sgx::PageType::Secs ||
            !machine.secsAt(secsPa)) {
            return Violation{Rule::KernelRecordCoherence,
                             "record for SECS " + hex(secsPa) +
                                 " but the SECS page is gone"};
        }
        for (const auto& [va, pa] : rec.pages) {
            if (freeSet.count(pa)) {
                return Violation{Rule::KernelRecordCoherence,
                                 "recorded page " + hex(pa) +
                                     " (va " + hex(va) +
                                     ") is on the free list"};
            }
            const auto& pe = machine.epcm().entry(mem.epcPageIndex(pa));
            if (pe.valid) {
                if (pe.ownerSecs != secsPa || pe.vaddr != va) {
                    return Violation{Rule::KernelRecordCoherence,
                                     "recorded page " + hex(pa) +
                                         " EPCM owner/vaddr diverged from "
                                         "the driver record"};
                }
            } else if (!orphans.count(pa)) {
                return Violation{Rule::KernelRecordCoherence,
                                 "recorded page " + hex(pa) +
                                     " vanished from the EPCM"};
            }
        }
    }

    // Reverse direction: every EPCM-valid child page owned by a recorded
    // enclave must appear in that record, or the driver lost track of an
    // allocation (the classic add-path leak).
    for (std::uint64_t i = 0; i < mem.epcPageCount(); ++i) {
        const auto& entry = machine.epcm().entry(i);
        if (!entry.valid || entry.type == sgx::PageType::Secs) continue;
        auto it = kernel.enclaveTable().find(entry.ownerSecs);
        if (it == kernel.enclaveTable().end()) continue;
        auto pageIt = it->second.pages.find(entry.vaddr);
        if (pageIt == it->second.pages.end() ||
            pageIt->second != mem.epcPageAddr(i)) {
            return Violation{Rule::KernelRecordCoherence,
                             "EPC page " + hex(mem.epcPageAddr(i)) +
                                 " owned by recorded SECS " +
                                 hex(entry.ownerSecs) +
                                 " but missing from its record (leak)"};
        }
    }
    return std::nullopt;
}

std::optional<Violation>
TraceOracle::consume(const trace::RingBufferSink& ring)
{
    if (ring.firstSeq() > cursor_) {
        // Events between two consume() calls fell off the ring before we
        // saw them; the pairing state would silently go stale. Surface it
        // as a checker-configuration problem rather than miss bugs.
        return Violation{Rule::TraceAexResumePairing,
                         "trace ring overflowed between oracle steps (" +
                             std::to_string(ring.firstSeq() - cursor_) +
                             " events lost); enlarge the ring"};
    }
    std::optional<Violation> found;
    cursor_ = ring.consumeFrom(
        cursor_, [&](const trace::RingBufferSink::Record& record) {
            if (!found) found = inspect(record.event);
        });
    return found;
}

std::optional<Violation>
TraceOracle::finish() const
{
    for (const auto& [ringId, posted] : switchlessPosted_) {
        if (!posted.empty()) {
            return Violation{
                Rule::TraceSwitchlessPairing,
                "ring " + hex(ringId) + " still has " +
                    std::to_string(posted.size()) +
                    " posted descriptor(s) at teardown (first seq=" +
                    std::to_string(posted.front()) +
                    ") — in-flight entries must drain or fall back, "
                    "never silently drop"};
        }
    }
    return std::nullopt;
}

std::optional<Violation>
TraceOracle::inspect(const trace::TraceEvent& event)
{
    using trace::EventKind;
    switch (event.kind) {
        case EventKind::AexTaken:
            if (event.code == 0) {
                // arg0 = the bottom TCS the nest was saved into.
                pendingResume_[event.arg0] = event.eid;
                quiesced_.insert(event.core);
            }
            return std::nullopt;
        case EventKind::LeafExit:
            if (event.code != 0) return std::nullopt;
            if (event.leaf == trace::Leaf::Eresume) {
                auto it = pendingResume_.find(event.arg0);
                if (it == pendingResume_.end()) {
                    return Violation{
                        Rule::TraceAexResumePairing,
                        "ERESUME of tcs=" + hex(event.arg0) + " on core " +
                            std::to_string(event.core) +
                            " succeeded with no matching AEX token (resume "
                            "replayed or AEX never saved here)"};
                }
                pendingResume_.erase(it);
                quiesced_.erase(event.core);
            } else if (event.leaf == trace::Leaf::Eenter) {
                // A fresh EENTER legitimately ends the window: the OS
                // handed the core a new enclave context.
                quiesced_.erase(event.core);
            }
            return std::nullopt;
        case EventKind::SwitchlessPost:
            // arg0 = ring id (base VA), arg1 = sequence number.
            switchlessPosted_[event.arg0].push_back(event.arg1);
            return std::nullopt;
        case EventKind::SwitchlessDrain: {
            auto it = switchlessPosted_.find(event.arg0);
            if (it == switchlessPosted_.end() || it->second.empty()) {
                return Violation{
                    Rule::TraceSwitchlessPairing,
                    "SwitchlessDrain seq=" + std::to_string(event.arg1) +
                        " from ring " + hex(event.arg0) +
                        " with nothing posted"};
            }
            if (it->second.front() != event.arg1) {
                return Violation{
                    Rule::TraceSwitchlessPairing,
                    "ring " + hex(event.arg0) + " drained seq=" +
                        std::to_string(event.arg1) + " but seq=" +
                        std::to_string(it->second.front()) +
                        " was posted first (slot overwritten past a full "
                        "ring?)"};
            }
            it->second.pop_front();
            if (it->second.empty()) switchlessPosted_.erase(it);
            return std::nullopt;
        }
        case EventKind::SwitchlessFallback:
            // The ring's outstanding entries were explicitly handed back
            // to the classic path (or poisoned at teardown): nothing to
            // pair anymore.
            switchlessPosted_.erase(event.arg0);
            return std::nullopt;
        case EventKind::TlbHit:
        case EventKind::TlbMiss:
        case EventKind::NestedCheck:
        case EventKind::AccessFault:
            if (event.eid != 0 && event.core != trace::kNoCore &&
                quiesced_.count(event.core)) {
                return Violation{
                    Rule::TraceQuiescedWindow,
                    std::string(trace::kindName(event.kind)) + " with eid=" +
                        std::to_string(event.eid) + " on core " +
                        std::to_string(event.core) +
                        " inside its AEX->ERESUME quiesced window"};
            }
            return std::nullopt;
        default:
            return std::nullopt;
    }
}

}  // namespace nesgx::check
