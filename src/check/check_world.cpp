#include "check/check_world.h"

#include "crypto/rsa.h"

namespace nesgx::check {

namespace {

/** Process-wide author key (RSA keygen dominates setup cost otherwise). */
const crypto::RsaKeyPair&
checkKey()
{
    static const crypto::RsaKeyPair key = [] {
        Rng rng(0xC4EC4);
        return crypto::RsaKeyPair::generate(rng, 512);
    }();
    return key;
}

std::shared_ptr<const sdk::SignedEnclave>
buildSlotImage(int slot)
{
    sdk::EnclaveSpec spec;
    spec.name = std::string("chk-") + char('a' + slot);
    spec.codePages = 2;
    spec.dataPages = 1;
    spec.heapPages = 4;
    spec.stackPages = 1;
    spec.tcsCount = CheckWorld::kTcsPerSlot;
    // Slot C may collect several outers so the generator can build DAG
    // (not just chain) association shapes (paper §VIII).
    if (slot == 2) spec.attributes = sgx::kAttrMultiOuter;

    // Every slot trusts anything by the checker's author key in both
    // directions, so the generator can attempt association in any order
    // and NASSO's structural rules are what actually decide.
    sgx::PeerExpectation signer;
    signer.mrsigner = checkKey().pub.signerMeasurement();
    spec.expectedOuter = signer;
    spec.allowedInners.push_back(signer);
    return sdk::buildImage(spec, checkKey());
}

sgx::Machine::Config
machineConfig(const CheckWorld::Config& config)
{
    sgx::Machine::Config mc;
    // Tiny EPC (256 pages) so eviction pressure and EPC exhaustion are
    // reachable within a few hundred steps.
    mc.dramBytes = 16ull << 20;
    mc.prmBase = 8ull << 20;
    mc.prmBytes = 1ull << 20;
    mc.coreCount = CheckWorld::kCores;
    mc.taggedTlb = config.taggedTlb;
    return mc;
}

}  // namespace

const char*
opName(Op op)
{
    switch (op) {
        case Op::Create: return "Create";
        case Op::AddPage: return "AddPage";
        case Op::Init: return "Init";
        case Op::Build: return "Build";
        case Op::Associate: return "Associate";
        case Op::Destroy: return "Destroy";
        case Op::Eenter: return "Eenter";
        case Op::Eexit: return "Eexit";
        case Op::Neenter: return "Neenter";
        case Op::Neexit: return "Neexit";
        case Op::Aex: return "Aex";
        case Op::Eresume: return "Eresume";
        case Op::Evict: return "Evict";
        case Op::Reload: return "Reload";
        case Op::EblockRaw: return "EblockRaw";
        case Op::EtrackRaw: return "EtrackRaw";
        case Op::HostileEvict: return "HostileEvict";
        case Op::Access: return "Access";
        case Op::Schedule: return "Schedule";
        case Op::FaultNextEextend: return "FaultNextEextend";
        case Op::EvictAll: return "EvictAll";
        case Op::ReloadAll: return "ReloadAll";
        case Op::SwitchlessPostDrain: return "SwitchlessPostDrain";
        case Op::DeepChain: return "DeepChain";
    }
    return "?";
}

const sdk::SignedEnclave&
CheckWorld::image(int slot)
{
    static const std::array<std::shared_ptr<const sdk::SignedEnclave>, kSlots>
        images = {buildSlotImage(0), buildSlotImage(1), buildSlotImage(2)};
    return *images[slot];
}

hw::Vaddr
CheckWorld::slotBase(int slot)
{
    return 0x6000'0000'0000ull + std::uint64_t(slot) * 0x1'0000'0000ull;
}

const sdk::SignedEnclave&
CheckWorld::deepImage()
{
    // Slot index kSlots (= 3, "chk-d"): same signer, no multi-outer —
    // the depth enclave is always a plain chain tail.
    static const auto img = buildSlotImage(kSlots);
    return *img;
}

CheckWorld::CheckWorld(const Config& config)
    : machine_(machineConfig(config)),
      kernel_(machine_),
      pid_(kernel_.createProcess())
{
    // Record every event from the first schedule on: the trace-level
    // oracle rules (oracle.h) need a complete stream, and a shrunk
    // reproducer's `--trace` dump should show the whole short run.
    machine_.trace().subscribe(&ring_);
    for (hw::CoreId c = 0; c < machine_.coreCount(); ++c) {
        kernel_.schedule(c, pid_);
    }
    untrustedVa_ = kernel_.mapUntrusted(pid_, 2);
}

CheckWorld::~CheckWorld()
{
    machine_.trace().unsubscribe(&ring_);
}

bool
CheckWorld::slotFullyAdded(int slot) const
{
    return slots_[slot].secsPage != 0 &&
           slots_[slot].pagesAdded == image(slot).pages.size();
}

bool
CheckWorld::slotHasPages(int slot) const
{
    const auto* rec = kernel_.enclaveRecord(slots_[slot].secsPage);
    return rec && !rec->pages.empty();
}

bool
CheckWorld::anyKnownTcs() const
{
    for (const auto& perSlot : knownTcs_) {
        for (hw::Paddr pa : perSlot) {
            if (pa != 0) return true;
        }
    }
    return false;
}

std::size_t
CheckWorld::coreDepth(int core) const
{
    return machine_.core(hw::CoreId(core)).depth();
}

hw::Paddr
CheckWorld::tcsPa(int slot, std::uint8_t index)
{
    std::vector<hw::Paddr> live;
    if (const auto* rec = kernel_.enclaveRecord(slots_[slot].secsPage)) {
        for (const auto& [va, pa] : rec->pages) {
            if (machine_.epcm()
                    .entry(machine_.mem().epcPageIndex(pa))
                    .type == sgx::PageType::Tcs) {
                live.push_back(pa);
            }
        }
    }
    if (!live.empty()) {
        for (std::size_t i = 0; i < live.size() && i < kTcsPerSlot; ++i) {
            knownTcs_[slot][i] = live[i];
        }
        return live[index % live.size()];
    }
    return knownTcs_[slot][index % kTcsPerSlot];
}

hw::Paddr
CheckWorld::recordedPage(int slot, std::uint8_t index) const
{
    const auto* rec = kernel_.enclaveRecord(slots_[slot].secsPage);
    if (!rec || rec->pages.empty()) return 0;
    auto it = rec->pages.begin();
    std::advance(it, index % rec->pages.size());
    return it->second;
}

Status
CheckWorld::buildDeepSlot()
{
    if (deepSlot_.initialized) return Status::ok();
    const auto& img = deepImage();
    if (deepSlot_.secsPage == 0) {
        auto secs = kernel_.createEnclave(pid_, slotBase(kSlots),
                                          img.sizeBytes,
                                          img.spec.attributes);
        if (!secs) return secs.status();
        deepSlot_ = Slot{};
        deepSlot_.secsPage = secs.value();
    }
    while (deepSlot_.pagesAdded < img.pages.size()) {
        const auto& page = img.pages[deepSlot_.pagesAdded];
        Status st = kernel_.addPage(deepSlot_.secsPage,
                                    slotBase(kSlots) + page.offset,
                                    page.type, page.perms,
                                    ByteView(page.content));
        if (!st) return st;
        ++deepSlot_.pagesAdded;
    }
    Status st = kernel_.initEnclave(deepSlot_.secsPage, img.sigstruct);
    if (st) deepSlot_.initialized = true;
    return st;
}

hw::Paddr
CheckWorld::deepTcsPa(std::uint8_t index)
{
    std::vector<hw::Paddr> live;
    if (const auto* rec = kernel_.enclaveRecord(deepSlot_.secsPage)) {
        for (const auto& [va, pa] : rec->pages) {
            if (machine_.epcm()
                    .entry(machine_.mem().epcPageIndex(pa))
                    .type == sgx::PageType::Tcs) {
                live.push_back(pa);
            }
        }
    }
    if (!live.empty()) {
        for (std::size_t i = 0; i < live.size() && i < kTcsPerSlot; ++i) {
            deepTcs_[i] = live[i];
        }
        return live[index % live.size()];
    }
    return deepTcs_[index % kTcsPerSlot];
}

Status
CheckWorld::apply(const Step& step)
{
    const hw::CoreId core = hw::CoreId(step.core % kCores);
    const int a = step.slotA % kSlots;
    const int b = step.slotB % kSlots;
    Slot& slot = slots_[a];

    switch (step.op) {
        case Op::Create: {
            if (slot.secsPage != 0) return Err::OsError;
            const auto& img = image(a);
            auto secs = kernel_.createEnclave(pid_, slotBase(a),
                                              img.sizeBytes,
                                              img.spec.attributes);
            if (!secs) return secs.status();
            slot = Slot{};
            slot.secsPage = secs.value();
            return Status::ok();
        }
        case Op::AddPage: {
            if (slot.secsPage == 0 || slot.initialized) return Err::OsError;
            const auto& img = image(a);
            if (slot.pagesAdded >= img.pages.size()) return Err::OsError;
            const auto& page = img.pages[slot.pagesAdded];
            Status st = kernel_.addPage(slot.secsPage,
                                        slotBase(a) + page.offset, page.type,
                                        page.perms, ByteView(page.content));
            if (st) ++slot.pagesAdded;
            return st;
        }
        case Op::Init: {
            if (slot.secsPage == 0) return Err::OsError;
            Status st =
                kernel_.initEnclave(slot.secsPage, image(a).sigstruct);
            if (st) slot.initialized = true;
            return st;
        }
        case Op::Build: {
            if (slot.initialized) return Err::OsError;
            const auto& img = image(a);
            if (slot.secsPage == 0) {
                auto secs = kernel_.createEnclave(pid_, slotBase(a),
                                                  img.sizeBytes,
                                                  img.spec.attributes);
                if (!secs) return secs.status();
                slot = Slot{};
                slot.secsPage = secs.value();
            }
            while (slot.pagesAdded < img.pages.size()) {
                const auto& page = img.pages[slot.pagesAdded];
                Status st = kernel_.addPage(slot.secsPage,
                                            slotBase(a) + page.offset,
                                            page.type, page.perms,
                                            ByteView(page.content));
                if (!st) return st;
                ++slot.pagesAdded;
            }
            Status st =
                kernel_.initEnclave(slot.secsPage, image(a).sigstruct);
            if (st) slot.initialized = true;
            return st;
        }
        case Op::Associate: {
            if (slot.secsPage == 0 || slots_[b].secsPage == 0) {
                return Err::OsError;
            }
            return kernel_.associate(slot.secsPage, slots_[b].secsPage);
        }
        case Op::Destroy: {
            if (slot.secsPage == 0) return Err::OsError;
            Status st = kernel_.destroyEnclave(slot.secsPage);
            // The slot only resets once the driver record is actually
            // gone — partial teardown (PageInUse) must stay retryable.
            // knownTcs_ is deliberately *not* cleared: stale TCS PAs are
            // the interesting ERESUME/EENTER inputs.
            if (!kernel_.enclaveRecord(slot.secsPage)) slot = Slot{};
            return st;
        }
        case Op::Eenter:
            return machine_.eenter(core, tcsPa(a, step.index));
        case Op::Eexit:
            return machine_.eexit(core);
        case Op::Neenter:
            return machine_.neenter(core, tcsPa(a, step.index));
        case Op::Neexit:
            return machine_.neexit(core);
        case Op::Aex:
            return machine_.aex(core);
        case Op::Eresume:
            return machine_.eresume(core, tcsPa(a, step.index));
        case Op::Evict: {
            if (slot.secsPage == 0) return Err::OsError;
            const auto& img = image(a);
            hw::Vaddr va = slotBase(a) + img.heapOffset +
                           (step.index % img.spec.heapPages) * hw::kPageSize;
            return kernel_.evictPage(slot.secsPage, va);
        }
        case Op::Reload: {
            if (slot.secsPage == 0) return Err::OsError;
            const auto& img = image(a);
            hw::Vaddr va = slotBase(a) + img.heapOffset +
                           (step.index % img.spec.heapPages) * hw::kPageSize;
            return kernel_.reloadPage(slot.secsPage, va);
        }
        case Op::EblockRaw: {
            hw::Paddr pa = recordedPage(a, step.index);
            if (pa == 0) return Err::OsError;
            return machine_.eblock(pa);
        }
        case Op::EtrackRaw: {
            if (slot.secsPage == 0) return Err::OsError;
            return machine_.etrack(slot.secsPage);
        }
        case Op::HostileEvict: {
            // A hostile driver runs the eviction protocol but drops the
            // blob: the page is gone for good, and the kernel record
            // still claims it. The oracle's accounting must tolerate
            // exactly this (orphans_) and nothing else.
            hw::Paddr pa = recordedPage(a, step.index);
            if (pa == 0 || slot.secsPage == 0) return Err::OsError;
            (void)machine_.eblock(pa);
            (void)machine_.etrack(slot.secsPage);
            machine_.ipiShootdown(slot.secsPage);
            auto blob = machine_.ewb(pa);
            if (!blob) return blob.status();
            orphans_.insert(pa);
            return Status::ok();
        }
        case Op::Access: {
            const hw::Vaddr targets[6] = {
                untrustedVa_,
                untrustedVa_ + hw::kPageSize,
                slotBase(a) + image(a).heapOffset,
                slotBase(a) + image(a).heapOffset + hw::kPageSize,
                slotBase(a),
                slotBase(b) + image(b).heapOffset,
            };
            hw::Vaddr va = targets[(step.index >> 1) % 6] + 64;
            std::uint8_t buf[8] = {0x5a, 1, 2, 3, 4, 5, 6, 7};
            if (step.index & 1) return machine_.write(core, va, buf, 8);
            return machine_.read(core, va, buf, 8);
        }
        case Op::Schedule:
            kernel_.schedule(core, pid_);
            return Status::ok();
        case Op::FaultNextEextend:
            kernel_.failNextEextend();
            return Status::ok();
        case Op::EvictAll: {
            // The serving layer's tenant-eviction pattern: walk the
            // driver record and EBLOCK/ETRACK/EWB everything evictable,
            // skipping pages that refuse (TCS, already blocked). Racing
            // this against in-progress entries on other cores is the
            // evict-while-entering coverage the corpus needs.
            if (slot.secsPage == 0) return Err::OsError;
            const os::EnclaveRecord* rec =
                kernel_.enclaveRecord(slot.secsPage);
            if (!rec || rec->pages.empty()) return Err::OsError;
            std::vector<hw::Vaddr> vas;
            vas.reserve(rec->pages.size());
            for (const auto& [va, pa] : rec->pages) vas.push_back(va);
            std::uint64_t written = 0;
            for (hw::Vaddr va : vas) {
                if (kernel_.evictPage(slot.secsPage, va)) ++written;
            }
            return written > 0 ? Status::ok() : Status(Err::InvalidEpcPage);
        }
        case Op::ReloadAll: {
            if (slot.secsPage == 0) return Err::OsError;
            const os::EnclaveRecord* rec =
                kernel_.enclaveRecord(slot.secsPage);
            if (!rec || rec->evicted.empty()) return Err::OsError;
            std::vector<hw::Vaddr> vas;
            vas.reserve(rec->evicted.size());
            for (const auto& [va, blob] : rec->evicted) vas.push_back(va);
            Status first = Status::ok();
            for (hw::Vaddr va : vas) {
                Status st = kernel_.reloadPage(slot.secsPage, va);
                if (!st && first.isOk()) first = st;
            }
            return first;
        }
        case Op::SwitchlessPostDrain: {
            // One full producer/consumer cycle on an untrusted DescRing:
            // push capacity+1 descriptors (the last MUST refuse with
            // Backpressure — under NESGX_BUG_RING_WRAP it instead
            // overwrites slot 0 and leaves a header claiming more
            // entries than the ring holds, so the first pop refuses
            // with BadCallBuffer and every post stays unmatched, which
            // TraceSwitchlessPairing flags at teardown), drain
            // everything, abandon the (empty) rest. The ring page is
            // mapped on first use.
            constexpr std::uint64_t kCap = 4;
            if (switchlessVa_ == 0) {
                switchlessVa_ = kernel_.mapUntrusted(pid_, 1);
            }
            Status st = switchRing_.init(machine_, core, switchlessVa_, kCap);
            if (!st) return st;
            bool refused = false;
            for (std::uint64_t i = 0; i <= kCap; ++i) {
                Status push = switchRing_.tryPush(machine_, core, 8 + i);
                if (push.code() == Err::Backpressure) {
                    refused = true;
                    break;
                }
                if (!push) return push;
            }
            while (true) {
                auto popped = switchRing_.tryPop(machine_, core);
                if (popped.code() == Err::NotFound) break;
                if (!popped.isOk()) return popped.status();
            }
            auto dropped = switchRing_.abandon(machine_, core);
            if (!dropped.isOk()) return dropped.status();
            // The refusal itself is part of the contract; a generator
            // step that never saw Backpressure still counts as failed
            // so shrunk reproducers read honestly.
            return refused ? Status::ok() : Status(Err::Backpressure);
        }
        case Op::DeepChain: {
            // Depth composite: build/associate a root(slotA)->mid(slotB)
            // chain, enter both, then attempt a third hop into the slot
            // picked by `index` — legitimately
            // associated first when `index` is odd, a hostile
            // unassociated NEENTER when even — and AEX. Everything
            // happens in ONE step on purpose: the per-step live-frame
            // rule (FrameValidity) never observes the intermediate
            // states, so a transition layer that skips adjacency
            // validation at depth >= 2 (NESGX_BUG_CHAIN_SKIP) parks its
            // poisoned chain in the bottom TCS's savedFrames, where only
            // SavedChainValidity looks.
            if (a == b) return Err::OsError;
            if (machine_.core(core).depth() != 0) return Err::OsError;
            if (!slots_[a].initialized) {
                Status st = apply(
                    Step{Op::Build, step.core, std::uint8_t(a), 0, 0});
                if (!st) return st;
            }
            if (!slots_[b].initialized) {
                Status st = apply(
                    Step{Op::Build, step.core, std::uint8_t(b), 0, 0});
                if (!st) return st;
            }
            // Already-associated is fine; NASSO decides.
            (void)kernel_.associate(slots_[b].secsPage, slots_[a].secsPage);
            Status st = machine_.eenter(core, tcsPa(a, 0));
            if (!st) return st;
            st = machine_.neenter(core, tcsPa(b, 0));
            if (!st) {
                (void)machine_.eexit(core);
                return st;
            }
            const int leaf = step.index % kSlots;
            if ((step.index & 1) && slots_[leaf].initialized) {
                (void)kernel_.associate(slots_[leaf].secsPage,
                                        slots_[b].secsPage);
            }
            Status third = Err::OsError;
            if (slots_[leaf].secsPage != 0) {
                // May validly refuse (unassociated, busy TCS, leaf == a
                // re-entry from depth 2); the AEX below parks whatever
                // nest actually formed.
                third = machine_.neenter(core, tcsPa(leaf, 1));
            }
            // Fourth hop (bit 1): from depth 3, descend once more into
            // the lazily-built depth enclave — deeper than any served
            // topology ever nests, so the parked chain stresses
            // SavedChainValidity past what the tenant stack exercises.
            // Bit 2 makes the hop hostile (no association edge): the
            // transition layer must refuse it at depth 3 exactly like it
            // does at depth 1.
            if (third.isOk() && (step.index & 2) &&
                buildDeepSlot().isOk()) {
                if (!(step.index & 4)) {
                    (void)kernel_.associate(deepSlot_.secsPage,
                                            slots_[leaf].secsPage);
                }
                (void)machine_.neenter(core, deepTcsPa(0));
            }
            return machine_.aex(core);
        }
    }
    return Err::OsError;
}

}  // namespace nesgx::check
