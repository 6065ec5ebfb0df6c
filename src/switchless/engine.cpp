#include "switchless/engine.h"

#include "fault/injector.h"
#include "hw/types.h"
#include "support/bytes.h"
#include "support/wire.h"

namespace nesgx::switchless {

namespace {

/** The host side's core: it initialises, feeds and drains host-memory
 *  rings from outside any enclave. */
constexpr hw::CoreId kHostCore = 0;

constexpr std::uint64_t
pagesFor(std::uint64_t bytes)
{
    return (bytes + hw::kPageSize - 1) / hw::kPageSize;
}

std::vector<sdk::LoadedEnclave*>
prefixOf(const std::vector<sdk::LoadedEnclave*>& chain, std::size_t depth)
{
    return {chain.begin(), chain.begin() + long(depth)};
}

}  // namespace

SwitchlessEngine::SwitchlessEngine(sdk::Urts& urts, Config config)
    : urts_(urts), config_(config)
{
    // Core 0 is the host side's own (kHostCore): never a poller's.
    if (config_.hostCores == 0) config_.hostCores = 1;
}

SwitchlessEngine::~SwitchlessEngine()
{
    disarmAll();
}

sgx::Machine&
SwitchlessEngine::machine()
{
    return urts_.machine();
}

std::uint64_t
SwitchlessEngine::now()
{
    return machine().clock().cycles();
}

bool
SwitchlessEngine::takeCore(hw::CoreId& out)
{
    if (!coresInit_) {
        nextHighCore_ = machine().coreCount();
        coresInit_ = true;
    }
    if (!freeCores_.empty()) {
        out = freeCores_.back();
        freeCores_.pop_back();
        return true;
    }
    // Poller cores come off the top of the core space so host workers
    // (cores [0, hostCores)) are never starved.
    if (nextHighCore_ <= config_.hostCores) return false;
    out = --nextHighCore_;
    return true;
}

void
SwitchlessEngine::releaseCore(hw::CoreId core)
{
    freeCores_.push_back(core);
}

bool
SwitchlessEngine::mapHostRings(Hop& hop)
{
    const std::uint64_t ringPages =
        pagesFor(DescRing::bytesFor(kRingCapacity));
    hw::Vaddr base = 0;
    if (!freeHostRegions_.empty()) {
        base = freeHostRegions_.back();
        freeHostRegions_.pop_back();
    } else {
        base = urts_.kernel().mapUntrusted(
            urts_.pid(), 2 * ringPages + pagesFor(kStagingBytes));
        if (base == 0) return false;
    }
    sgx::Machine& m = machine();
    const hw::Vaddr respVa = base + ringPages * hw::kPageSize;
    if (!hop.req.init(m, kHostCore, base, kRingCapacity) ||
        !hop.resp.init(m, kHostCore, respVa, kRingCapacity)) {
        freeHostRegions_.push_back(base);
        return false;
    }
    hop.reqVa = base;
    hop.respVa = respVa;
    hop.stagingVa = base + 2 * ringPages * hw::kPageSize;
    return true;
}

void
SwitchlessEngine::freeRings(Hop& hop, const Chain& prefix)
{
    if (prefix.size() == 1) {
        if (hop.reqVa) freeHostRegions_.push_back(hop.reqVa);
        return;
    }
    sdk::TrustedHeap& heap = prefix[prefix.size() - 2]->heap();
    if (hop.stagingVa) heap.free(hop.stagingVa);
    if (hop.respVa) heap.free(hop.respVa);
    if (hop.reqVa) heap.free(hop.reqVa);
}

SwitchlessEngine::Hop*
SwitchlessEngine::armHop(const Chain& prefix)
{
    auto found = hops_.find(prefix);
    if (found != hops_.end()) return &found->second;
    Hop& hop = hops_[prefix];
    auto fail = [&]() -> Hop* {
        hops_.erase(prefix);
        return nullptr;
    };
    if (!takeCore(hop.core)) return fail();
    urts_.kernel().schedule(hop.core, urts_.pid());

    // Ring placement, the one per-hop branch. A root's rings live in
    // host-shared untrusted memory and the host initialises them. A
    // deeper hop's live in its parent's trusted heap — writable by the
    // parent's poller (its own enclave), reachable from this hop's
    // poller through the outer-closure walk — and park() initialises
    // them from inside the parent (heap rings need enclave mode).
    bool placed = false;
    if (prefix.size() == 1) {
        placed = mapHostRings(hop);
    } else {
        sdk::TrustedHeap& heap = prefix[prefix.size() - 2]->heap();
        const std::uint64_t ringBytes = DescRing::bytesFor(kRingCapacity);
        hop.reqVa = heap.alloc(ringBytes);
        hop.respVa = heap.alloc(ringBytes);
        hop.stagingVa = heap.alloc(kStagingBytes);
        placed = hop.reqVa != 0 && hop.respVa != 0 && hop.stagingVa != 0;
    }
    if (!placed || !park(hop, prefix, true)) {
        freeRings(hop, prefix);
        releaseCore(hop.core);
        return fail();
    }
    hop.lastActive = now();
    return &hop;
}

bool
SwitchlessEngine::park(Hop& hop, const Chain& prefix, bool initRings)
{
    sgx::Machine& m = machine();
    os::Kernel& kernel = urts_.kernel();
    auto unwind = [&] {
        while (m.core(hop.core).depth() >= 2) {
            if (!m.neexit(hop.core)) break;
        }
        if (m.core(hop.core).inEnclaveMode()) (void)m.eexit(hop.core);
        return false;
    };

    // EENTER the chain root, then NEENTER every deeper link down to the
    // hop's own enclave: the poller parks at the hop's depth.
    hop.tcses.clear();
    for (std::size_t i = 0; i < prefix.size(); ++i) {
        if (initRings && i > 0 && i + 1 == prefix.size()) {
            const std::uint64_t eid = prefix[i - 1]->secsPage();
            if (!hop.req.init(m, hop.core, hop.reqVa, kRingCapacity, eid) ||
                !hop.resp.init(m, hop.core, hop.respVa, kRingCapacity,
                               eid)) {
                return unwind();
            }
        }
        std::lock_guard<std::mutex> entry(prefix[i]->entryMutex());
        auto tcs = urts_.idleTcs(*prefix[i]);
        if (!tcs) return unwind();
        kernel.touchEnclave(prefix[i]->secsPage());
        Status st = i == 0 ? m.eenter(hop.core, tcs.value())
                           : m.neenter(hop.core, tcs.value());
        if (!st) return unwind();
        hop.tcses.push_back(tcs.value());
    }
    hop.parked = true;
    ++stats_.armings;
    return true;
}

bool
SwitchlessEngine::resume(Hop& hop)
{
    sgx::Machine& m = machine();
    if (m.core(hop.core).inEnclaveMode()) return true;
    // The poller took an AEX (IPI shootdown, storm): the whole nest is
    // saved in the bottom (chain-root) TCS — ERESUME puts it back.
    return !hop.tcses.empty() && m.eresume(hop.core, hop.tcses.front());
}

void
SwitchlessEngine::unpark(Hop& hop)
{
    if (!hop.parked) return;
    sgx::Machine& m = machine();
    // An AEX'd poller resumes first so the exit path is the clean one;
    // when even that fails the enclave is gone and the frames died with
    // it. Otherwise a symmetric unwind: one NEEXIT per link below the
    // root, then the EEXIT out.
    if (resume(hop)) {
        while (m.core(hop.core).depth() >= 2) {
            if (!m.neexit(hop.core)) break;
        }
        (void)m.eexit(hop.core);
    }
    hop.parked = false;
    releaseCore(hop.core);
}

bool
SwitchlessEngine::abandonRings(Hop& hop, bool hostRings)
{
    // The host empties host-memory rings from outside; heap rings need
    // an enclave-mode core, the parked poller, while it can resume.
    if (!hostRings && !(hop.parked && resume(hop))) return false;
    sgx::Machine& m = machine();
    const hw::CoreId core = hostRings ? kHostCore : hop.core;
    (void)hop.req.abandon(m, core);
    (void)hop.resp.abandon(m, core);
    return true;
}

void
SwitchlessEngine::disarmHop(const Chain& prefix)
{
    auto it = hops_.find(prefix);
    if (it == hops_.end()) return;
    Hop& hop = it->second;
    // Never silently drop in-flight entries. A heap hop whose poller
    // cannot resume keeps them: its enclave is gone, so nothing pops
    // that hop again, and the trace-only poison marker clears them (the
    // caller's completion machinery retries through the classic path).
    const bool drained = abandonRings(hop, prefix.size() == 1);
    unpark(hop);
    if (!drained) {
        hop.req.markAbandoned(machine());
        hop.resp.markAbandoned(machine());
    }
    freeRings(hop, prefix);
    hops_.erase(it);
}

void
SwitchlessEngine::release(const Chain& chain, std::size_t depth)
{
    // Deepest first: each hop's rings live in the hop above it.
    for (std::size_t d = depth; d > 0; --d) {
        const Chain prefix = prefixOf(chain, d);
        auto it = hops_.find(prefix);
        if (it == hops_.end()) continue;
        if (it->second.riders > 0) --it->second.riders;
        if (it->second.riders == 0) disarmHop(prefix);
    }
}

bool
SwitchlessEngine::ready(std::uint64_t key, const Endpoint& ep)
{
    if (!config_.enabled || ep.chain.size() < 2) return false;
    for (sdk::LoadedEnclave* enclave : ep.chain) {
        if (enclave == nullptr) return false;
    }
    std::lock_guard<std::mutex> g(m_);
    auto it = tenants_.find(key);
    if (it != tenants_.end()) {
        // A rebuilt enclave comes back as a different LoadedEnclave;
        // any pointer mismatch along the chain means a poller is parked
        // in a dead enclave — tear it down and re-arm fresh.
        if (it->second.chain == ep.chain) return true;
        disarmLocked(key);
    }
    // Root first, one rider per hop; a link that fails to arm releases
    // the hops taken so far.
    for (std::size_t depth = 1; depth <= ep.chain.size(); ++depth) {
        Hop* hop = armHop(prefixOf(ep.chain, depth));
        if (hop == nullptr) {
            release(ep.chain, depth - 1);
            return false;
        }
        ++hop->riders;
    }
    tenants_[key] = Tenant{ep.chain, false};
    return true;
}

void
SwitchlessEngine::disarm(std::uint64_t key)
{
    std::lock_guard<std::mutex> g(m_);
    disarmLocked(key);
}

void
SwitchlessEngine::disarmLocked(std::uint64_t key)
{
    auto it = tenants_.find(key);
    if (it == tenants_.end()) return;
    const Chain chain = std::move(it->second.chain);
    tenants_.erase(it);
    release(chain, chain.size());
}

void
SwitchlessEngine::disarmAll()
{
    std::lock_guard<std::mutex> g(m_);
    while (!tenants_.empty()) disarmLocked(tenants_.begin()->first);
}

ChannelProgress
SwitchlessEngine::channelProgress(std::uint64_t key) const
{
    std::lock_guard<std::mutex> g(m_);
    ChannelProgress out;
    auto it = tenants_.find(key);
    if (it == tenants_.end()) return out;
    out.armed = true;
    out.wedged = it->second.wedged;
    out.lastActive = hops_.at(it->second.chain).lastActive;
    return out;
}

void
SwitchlessEngine::idleCheck(const Chain& chain, const std::vector<Hop*>& hops)
{
    const std::uint64_t t = now();
    // A poller whose rings stayed empty past the threshold has given the
    // core back (spin -> yield -> exit); the request that finds it gone
    // pays the classic re-entry. This is the knob that makes transition
    // count scale with idleness instead of load. Rings are empty between
    // calls, so there is nothing to abandon.
    for (std::size_t depth = hops.size(); depth-- > 0;) {
        Hop& hop = *hops[depth];
        if (!hop.parked || t - hop.lastActive <= config_.idleParkCycles) {
            continue;
        }
        ++stats_.idleFallbacks;
        unpark(hop);
        // Re-park immediately for the request being served now: this is
        // the classic-entry fallback cost (EENTER + one NEENTER per
        // deeper link), paid once per idle episode.
        if (!takeCore(hop.core)) continue;
        urts_.kernel().schedule(hop.core, urts_.pid());
        if (park(hop, prefixOf(chain, depth + 1), false)) {
            hop.lastActive = t;
        } else {
            releaseCore(hop.core);
        }
    }
}

Result<Bytes>
SwitchlessEngine::call(std::uint64_t key, const Endpoint& ep, ByteView blob,
                       hw::CoreId hostCore)
{
    std::lock_guard<std::mutex> g(m_);
    auto it = tenants_.find(key);
    if (it == tenants_.end()) return Err::Unavailable;
    Tenant& tenant = it->second;
    const Chain& chain = tenant.chain;  // valid until a disarmLocked(key)
    // Every hop of an armed chain holds the tenant as a rider, so all of
    // them are present.
    std::vector<Hop*> hops;
    for (std::size_t depth = 1; depth <= chain.size(); ++depth) {
        hops.push_back(&hops_.at(prefixOf(chain, depth)));
    }

    sgx::Machine& m = machine();

    // Deterministic poller-wedge fault site: the poller core stops
    // draining but the channel stays armed, so the caller sees typed
    // Err::Unavailable on every attempt while okServed flatlines — the
    // exact signature the supervisor's watchdog keys on. Recovery is a
    // disarm (the supervisor's kick rung); the next ready() re-arms a
    // fresh channel. The wedge refuses *before* posting so no descriptor
    // is ever orphaned.
    if (m.faultFires(fault::FaultSite::PollerWedge, hostCore)) {
        tenant.wedged = true;
        ++stats_.pollerWedges;
    }
    if (tenant.wedged) return Err::Unavailable;

    idleCheck(chain, hops);
    // A hop idle fallback could not re-park (cores or TCSes exhausted),
    // or an AEX'd poller that cannot resume: classic path until pressure
    // eases.
    auto live = [&] {
        for (Hop* hop : hops) {
            if (!hop->parked) return false;
        }
        for (Hop* hop : hops) {
            if (!resume(*hop)) return false;
        }
        return true;
    };
    if (!live()) {
        disarmLocked(key);
        return Err::Unavailable;
    }

    if (blob.size() < 4 || blob.size() > kStagingBytes) {
        return Err::BadCallBuffer;
    }

    // ---- host -> root: post into untrusted shared memory -------------
    Hop& root = *hops.front();
    Status st = m.write(hostCore, root.stagingVa, blob.data(), blob.size());
    if (!st) return st;
    st = root.req.tryPush(m, hostCore, blob.size());
    if (!st) return st;

    // Once the request is posted, every failure empties the rings of the
    // whole chain — shared hops included, so no later call meets an
    // orphan — and poisons the channel: the caller retries classically
    // and a later ready() re-arms.
    auto hardFail = [&](Status s) -> Result<Bytes> {
        for (Hop* hop : hops) abandonRings(*hop, hop == hops.front());
        disarmLocked(key);
        return s;
    };

    // Deterministic ring-stall fault site: the descriptor is posted but
    // the consumer never drains it. Recovery abandons the in-flight
    // entry (SwitchlessFallback pairs the orphaned SwitchlessPost) and
    // poisons the channel — never a silent drop, never a wedge.
    if (m.faultFires(fault::FaultSite::RingStall, hostCore)) {
        ++stats_.ringStalls;
        return hardFail(Err::Unavailable);
    }

    // A mid-pump failure (faulted access, evicted pages, poisoned
    // tenant, a lying ring header) may leave descriptors in flight.
    Status pumped = pumpEnclaveSide(chain, hops, ep);
    if (!pumped) return hardFail(pumped);

    // ---- host: harvest -----------------------------------------------
    auto done = root.resp.tryPop(m, hostCore);
    if (!done) return hardFail(done.status());
    Bytes result(done.value().len);
    st = m.read(hostCore, root.stagingVa, result.data(), result.size());
    if (!st) return hardFail(st);

    ++stats_.calls;
    return result;
}

Status
SwitchlessEngine::pumpEnclaveSide(const Chain& chain,
                                  const std::vector<Hop*>& hops,
                                  const Endpoint& ep)
{
    sgx::Machine& m = machine();
    // Several leaves relay through one hop; each hop's poller core takes
    // one request at a time, like the real parked core would. Lock
    // order: root hop first.
    std::vector<std::unique_lock<std::mutex>> owned;
    owned.reserve(hops.size());
    for (Hop* hop : hops) owned.emplace_back(hop->coreM);

    // ---- downward: every relay hop drains, validates, forwards -------
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
        Hop& hop = *hops[i];
        Hop& next = *hops[i + 1];
        auto req = hop.req.tryPop(m, hop.core);
        if (!req) return req.status();
        if (req.value().len > kStagingBytes) return Err::BadCallBuffer;
        // Copy through enclave-validated staging: the hop reads its own
        // staging window with its own access rights, and the payload's
        // slot header (its leading u32) must name the channel's slot.
        Bytes payload(req.value().len);
        Status st = m.read(hop.core, hop.stagingVa, payload.data(),
                           payload.size());
        if (!st) return st;
        WireReader header(payload);
        if (header.u32() != ep.slot || !header.ok()) return Err::BadCallBuffer;
        st = m.write(hop.core, next.stagingVa, payload.data(),
                     payload.size());
        if (!st) return st;
        hop.lastActive = now();

        st = next.req.tryPush(m, hop.core, payload.size());
        if (!st) return st;
    }

    // ---- leaf poller: drain and serve without any transition ---------
    Hop& leaf = *hops.back();
    auto inReq = leaf.req.tryPop(m, leaf.core);
    if (!inReq) return inReq.status();
    sdk::TrustedEnv leafEnv(urts_, *chain.back(), leaf.core);
    auto servedLen = leafEnv.residentCall(
        ep.innerCall,
        WireWriter(16).u64(leaf.stagingVa).u64(inReq.value().len).take());
    if (!servedLen) return servedLen.status();
    WireReader reply(servedLen.value());
    const std::uint64_t respLen = reply.u64();
    if (!reply.done() || respLen > kStagingBytes) return Err::BadCallBuffer;
    leaf.lastActive = now();

    Status st = leaf.resp.tryPush(m, leaf.core, respLen);
    if (!st) return st;

    // ---- upward: relay the response hop by hop to the host ring ------
    for (std::size_t i = hops.size() - 1; i-- > 0;) {
        Hop& hop = *hops[i];
        Hop& next = *hops[i + 1];
        auto inResp = next.resp.tryPop(m, hop.core);
        if (!inResp) return inResp.status();
        if (inResp.value().len > kStagingBytes) return Err::BadCallBuffer;
        Bytes respBytes(inResp.value().len);
        st = m.read(hop.core, next.stagingVa, respBytes.data(),
                    respBytes.size());
        if (!st) return st;
        st = m.write(hop.core, hop.stagingVa, respBytes.data(),
                     respBytes.size());
        if (!st) return st;
        st = hop.resp.tryPush(m, hop.core, respBytes.size());
        if (!st) return st;
    }
    return Status::ok();
}

}  // namespace nesgx::switchless
