#include "sgx/machine.h"

#include <set>

#include "fault/injector.h"
#include "sgx/chain.h"

namespace nesgx::sgx {

bool
Machine::faultFiresSlow(fault::FaultSite site, hw::CoreId core)
{
    if (!faultInjector_->shouldInject(site)) return false;
    bus_.publishLight(trace::EventKind::FaultInjected, core, coreEid(core),
                      std::uint64_t(site), faultInjector_->injected(site));
    return true;
}

Machine::Machine() : Machine(Config{}) {}

Machine::Machine(const Config& config)
    : config_(config),
      mem_(config.dramBytes, config.prmBase, config.prmBytes),
      clock_(),
      costs_(hw::CostModel::forPreset(config.preset)),
      llc_(config.llcBytes),
      epcm_(config.prmBytes >> hw::kPageShift),
      rng_(config.rngSeed)
{
    bus_.setClock(&clock_);
    cores_.reserve(config.coreCount);
    for (std::uint32_t i = 0; i < config.coreCount; ++i) {
        cores_.emplace_back(i);
        cores_.back().tlb().attachTrace(&bus_, i);
    }
    // Per-device root key: in real SGX this is fused; the model draws it
    // from the seeded RNG so attestation keys are stable per machine.
    rootKey_ = rng_.bytes(32);
    Bytes pagingKey = rng_.bytes(16);
    pagingGcm_ = std::make_unique<crypto::AesGcm>(pagingKey);
}

Secs*
Machine::secsAt(hw::Paddr pa)
{
    auto it = secsTable_.find(pa);
    return it == secsTable_.end() ? nullptr : &it->second;
}

const Secs*
Machine::secsAt(hw::Paddr pa) const
{
    auto it = secsTable_.find(pa);
    return it == secsTable_.end() ? nullptr : &it->second;
}

Tcs*
Machine::tcsAt(hw::Paddr pa)
{
    auto it = tcsTable_.find(pa);
    return it == tcsTable_.end() ? nullptr : &it->second;
}

const Tcs*
Machine::tcsAt(hw::Paddr pa) const
{
    auto it = tcsTable_.find(pa);
    return it == tcsTable_.end() ? nullptr : &it->second;
}

bool
Machine::tcsIdle(hw::Paddr pa) const
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    const Tcs* tcs = tcsAt(pa);
    return tcs && !tcs->busy;
}

bool
Machine::chainLinked(hw::Paddr innerPa, hw::Paddr outerPa) const
{
    std::shared_lock<std::shared_mutex> g(stateMutex_);
    const Secs* inner = secsAt(innerPa);
    return inner && chainAdjacent(*inner, outerPa);
}

void
Machine::flushCoreTlb(hw::CoreId coreId)
{
    // Public entry (OS reschedule): exclusive — the flushed TLB may
    // belong to a core another thread is running.
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    flushCoreTlbLocked(coreId);
}

void
Machine::flushCoreTlbLocked(hw::CoreId coreId)
{
    // The TLB publishes the TlbFlush event (feeding the tlbFlushes
    // counter) from inside flushAll — hw/tlb.cpp is the emission site.
    cores_[coreId].tlb().flushAll();
    cores_[coreId].clearLastTranslation();
    // A flushed core no longer caches stale translations: drop it from
    // every active ETRACK tracking set (paper §IV-E thread tracking).
    // Transitions reach here in shared mode, so concurrent AEXes race on
    // the sets without the tracking mutex.
    std::lock_guard<std::mutex> t(trackingMutex_);
    for (auto& [pa, secs] : secsTable_) {
        if (secs.trackingActive) secs.trackingSet.erase(coreId);
    }
}

void
Machine::invalidateTlbForPage(hw::Paddr pagePa)
{
    // Selective shootdown by physical frame: required whenever an EPC
    // frame leaves an enclave (EBLOCK/EWB/EREMOVE). Under the tagged
    // TLB, cores that merely *exited* still hold tagged entries, so
    // every core is swept, not just the currently-tracked ones.
    for (auto& core : cores_) {
        core.tlb().invalidatePaddr(pagePa);
    }
}

void
Machine::invalidateTlbForSecs(hw::Paddr secsPage)
{
    for (auto& core : cores_) {
        core.tlb().flushSecs(secsPage);
    }
}

void
Machine::invalidateClosureCache()
{
    std::lock_guard<std::mutex> g(closureMutex_);
    closureCache_.clear();
}

const hw::TlbEntry*
Machine::tlbProbe(hw::Core& core, hw::Vaddr va)
{
    const hw::Tlb& tlb = core.tlb();
    const std::uint64_t rejectsBefore = tlb.tagRejectCount();
    const hw::TlbEntry* entry = tlb.lookup(va, core.currentSecs());
    if (config_.taggedTlb) {
        // The tag compare is only a modelled cost in tagged mode; the
        // flush-on-transition model never sees a mismatched tag (every
        // surviving entry was validated under the current context).
        charge(costs_.tlbTagCompare);
        const std::uint64_t rejects = tlb.tagRejectCount() - rejectsBefore;
        if (rejects) {
            trace::TraceEvent event;
            event.kind = trace::EventKind::TlbTagReject;
            event.core = core.id();
            event.eid = coreEid(core.id());
            event.arg0 = rejects;
            event.arg1 = va;
            bus_.publish(event);
        }
    }
    return entry;
}

void
Machine::chargeDataPath(hw::Paddr pa, std::uint64_t len)
{
    if (len == 0) return;
    hw::Paddr first = hw::lineBase(pa);
    hw::Paddr last = hw::lineBase(pa + len - 1);
    // Callers pass ranges that never straddle the PRM boundary (access
    // proceeds per page segment), so the miss-side cost is uniform and
    // the whole range can go through one locked LLC pass.
    const std::uint64_t lineCount = (last - first) / hw::kCacheLineSize + 1;
    const std::uint64_t llcLines = llc_.touchRange(first, lineCount);
    const std::uint64_t missLines = lineCount - llcLines;
    std::uint64_t meeLines = 0;
    charge(costs_.llcHitLine * llcLines);
    if (mem_.inPrm(first)) {
        // Off-chip EPC traffic goes through the MEE: AES-CTR at
        // cacheline granularity plus integrity-tree work.
        charge(costs_.meeLine * missLines);
        meeLines = missLines;
    } else {
        charge(costs_.dramLine * missLines);
    }
    // One DataPath event per range keeps the stream proportional to
    // accesses, not cachelines; the line tallies ride in the operands.
    bus_.publishLight(trace::EventKind::DataPath, trace::kNoCore, 0, llcLines,
                      meeLines);
}

const std::vector<hw::Paddr>&
Machine::outerClosure(hw::Paddr secsPage) const
{
    bool cacheHit = false;
    return outerClosure(secsPage, &cacheHit);
}

const std::vector<hw::Paddr>&
Machine::outerClosure(hw::Paddr secsPage, bool* cacheHit) const
{
    // Memoization under its own leaf mutex: shared-mode translation
    // misses race on the cache map, while the association graph itself
    // (secsTable_/outerEids) only changes under the exclusive lock. A
    // returned reference stays valid until the next NASSO/EREMOVE drops
    // the cache — both exclusive, so no shared-mode reader is in flight.
    std::lock_guard<std::mutex> lock(closureMutex_);
    auto cached = closureCache_.find(secsPage);
    if (cached != closureCache_.end()) {
        *cacheHit = true;
        bus_.publishLight(trace::EventKind::ClosureCacheHit, trace::kNoCore, 0,
                          secsPage);
        return cached->second;
    }
    *cacheHit = false;
    bus_.publishLight(trace::EventKind::ClosureCacheMiss, trace::kNoCore, 0,
                      secsPage);

    std::vector<hw::Paddr> order;
    std::set<hw::Paddr> visited{secsPage};
    std::vector<hw::Paddr> frontier{secsPage};
    while (!frontier.empty()) {
        hw::Paddr cur = frontier.back();
        frontier.pop_back();
        const Secs* s = secsAt(cur);
        if (!s) continue;
        for (hw::Paddr outer : s->outerEids) {
            if (visited.insert(outer).second) {
                order.push_back(outer);
                frontier.push_back(outer);
            }
        }
    }
    return closureCache_.emplace(secsPage, std::move(order)).first->second;
}

std::vector<hw::CoreId>
Machine::trackedCores(hw::Paddr secsPage) const
{
    // A core may cache translations of enclave E if any frame on its
    // enclave stack is E *or reaches E through the association graph* —
    // an inner-enclave thread touches its outers' pages (paper §IV-E,
    // extended across multi-level/multi-outer nests per §VIII).
    std::vector<hw::CoreId> out;
    for (const auto& core : cores_) {
        bool tracked = false;
        for (const auto& frame : core.frames()) {
            if (frame.secs == secsPage) {
                tracked = true;
                break;
            }
            for (hw::Paddr outer : outerClosure(frame.secs)) {
                if (outer == secsPage) {
                    tracked = true;
                    break;
                }
            }
            if (tracked) break;
        }
        if (tracked) out.push_back(core.id());
    }
    return out;
}

void
Machine::ipiShootdown(hw::Paddr secsPage)
{
    // Exclusive: acquiring the writer side IS the quiesce — once held, no
    // simulated core is mid-transition or mid-access, which is exactly
    // the guarantee a real IPI provides before the initiator proceeds.
    std::unique_lock<std::shared_mutex> g(stateMutex_);
    for (hw::CoreId id : trackedCores(secsPage)) {
        charge(costs_.ipi);
        bus_.publishLight(trace::EventKind::Ipi, id, coreEid(id), secsPage);
        aexLocked(id);
    }
}

}  // namespace nesgx::sgx
