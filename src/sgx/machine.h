/**
 * The emulated SGX machine with the nested-enclave hardware extension.
 *
 * Owns the physical memory (with PRM/EPC), the EPCM, the per-core TLBs,
 * the LLC + MEE cost path, the device root key, and implements every
 * ENCLS/ENCLU leaf the reproduction needs:
 *
 *   ENCLS (privileged, invoked by the OS model):
 *     ECREATE EADD EEXTEND EINIT EREMOVE EBLOCK ETRACK EWB ELDU NASSO
 *   ENCLU (user):
 *     EENTER ERESUME EEXIT EREPORT EGETKEY NEENTER NEEXIT NEREPORT
 *
 * plus AEX and the TLB-miss access-validation flow of paper Fig. 6.
 *
 * Model notes (documented simplifications):
 *  - EPC contents are stored as plaintext; MEE confidentiality against
 *    physical attack is modelled by cycle cost, and by real AES-GCM on the
 *    EWB/ELDU path where bits actually leave the PRM.
 *  - EEXIT requires nesting depth 1 (#GP otherwise); the SDK routes inner
 *    ocalls through the outer enclave. The paper's Fig. 5 direct
 *    inner->untrusted edge is still available for threads that EENTERed an
 *    inner enclave directly.
 *  - Version-array pages are modelled as a machine-internal replay counter
 *    table rather than VA EPC pages.
 */
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "crypto/gcm.h"
#include "hw/cache.h"
#include "hw/core.h"
#include "hw/cost_model.h"
#include "hw/page_table.h"
#include "hw/phys_memory.h"
#include "hw/sim_clock.h"
#include "sgx/epcm.h"
#include "sgx/report.h"
#include "sgx/secs.h"
#include "sgx/sigstruct.h"
#include "support/rng.h"
#include "support/status.h"
#include "trace/bus.h"

namespace nesgx::fault {
class FaultInjector;
enum class FaultSite : std::uint8_t;
}  // namespace nesgx::fault

namespace nesgx::sgx {

/** Ciphertext blob produced by EWB, held in untrusted memory by the OS. */
struct EvictedPage {
    Bytes ciphertext;        ///< page content + GCM tag
    std::array<std::uint8_t, 12> iv{};
    hw::Vaddr vaddr = 0;
    PageType type = PageType::Reg;
    PagePerms perms;
    EnclaveId ownerEid = 0;
    std::uint64_t versionSlot = 0;
    std::uint64_t version = 0;

    /** What EWB seals the page under and ELDU opens it with. */
    Bytes aad() const;
};

class Machine {
  public:
    struct Config {
        std::uint64_t dramBytes = 256ull << 20;
        hw::Paddr prmBase = 128ull << 20;
        std::uint64_t prmBytes = 64ull << 20;
        std::uint32_t coreCount = 4;
        std::uint64_t llcBytes = 8ull << 20;
        hw::CostPreset preset = hw::CostPreset::EmulatedNested;
        std::uint64_t rngSeed = 42;
        /**
         * Context-tagged TLB: transitions switch the active SECS tag
         * instead of flushing, and `Tlb::lookup` only serves entries
         * validated under the current context (invariant 1, §VII-A).
         * Off reproduces the paper-faithful flush-on-transition costs.
         */
        bool taggedTlb = true;
        /**
         * Price the memoized outer-closure as hardware (paper §VIII
         * ablation): a closure-cache *hit* on the nested TLB-miss path
         * charges one flat `nestedCheckExtra` (an associative lookaside
         * probe) instead of one per visited ancestor, so validation
         * stays flat in nesting depth. Off (the default) charges the
         * full per-node walk every miss, the paper-faithful linear
         * cost — and keeps every historical trace byte-identical.
         */
        bool closureCacheCosts = false;
    };

    Machine();
    explicit Machine(const Config& config);

    // --- accessors ------------------------------------------------------
    hw::PhysicalMemory& mem() { return mem_; }
    const hw::PhysicalMemory& mem() const { return mem_; }
    hw::SimClock& clock() { return clock_; }
    const hw::SimClock& clock() const { return clock_; }
    const hw::CostModel& costs() const { return costs_; }
    hw::LastLevelCache& llc() { return llc_; }
    Epcm& epcm() { return epcm_; }
    const Epcm& epcm() const { return epcm_; }
    hw::Core& core(hw::CoreId id) { return cores_[id]; }
    const hw::Core& core(hw::CoreId id) const { return cores_[id]; }
    std::uint32_t coreCount() const { return std::uint32_t(cores_.size()); }
    const Config& config() const { return config_; }

    /** SECS lookup by EPC physical address (null when not a live SECS).
     *  These four take no lock: for leaves that hold `stateMutex_` and
     *  for serial callers such as the checker's oracle. */
    Secs* secsAt(hw::Paddr pa);
    const Secs* secsAt(hw::Paddr pa) const;
    Tcs* tcsAt(hw::Paddr pa);
    const Tcs* tcsAt(hw::Paddr pa) const;

    /** `pa` is a live TCS that no LP is executing on. For the SDK: takes
     *  the state lock shared, since another thread's EADD or EREMOVE may
     *  be inserting or erasing TCS records under it exclusive. */
    bool tcsIdle(hw::Paddr pa) const;
    /** `innerPa` is a live SECS associated with the outer at `outerPa`.
     *  For the SDK's chain check, locked like tcsIdle (ECREATE and
     *  EREMOVE reshape the SECS table). */
    bool chainLinked(hw::Paddr innerPa, hw::Paddr outerPa) const;

    /**
     * Model-introspection views of the microcode-internal tables, used by
     * the orderliness checker's invariant oracle (src/check) to cross-check
     * machine state against the EPCM, the TLBs and the OS bookkeeping.
     */
    const std::map<hw::Paddr, Secs>& secsTable() const { return secsTable_; }
    const std::map<hw::Paddr, Tcs>& tcsTable() const { return tcsTable_; }

    /** EEXTEND page folds replayed from the machine's memo rather than
     *  hashed again (sgx/measurement.h). Host work only: a replayed fold
     *  measures and charges exactly what a hashed one does. */
    std::uint64_t pageFoldHits() const { return pageFolds_.hits(); }

    /** Charges `cycles` on the simulated clock. */
    void charge(std::uint64_t cycles) { clock_.advance(cycles); }

    // --- ENCLS: lifecycle (machine_lifecycle.cpp) ------------------------
    /** ECREATE: turns a free EPC page into a SECS. */
    Status ecreate(hw::Paddr secsPage, hw::Vaddr baseAddr, std::uint64_t size,
                   std::uint64_t attributes);

    /**
     * EADD: adds an EPC page to an enclave. `src` supplies initial content
     * for REG pages (must be one page, or empty for zero-fill).
     */
    Status eadd(hw::Paddr secsPage, hw::Paddr epcPage, hw::Vaddr vaddr,
                PageType type, PagePerms perms, ByteView src);

    /** EEXTEND: measures the full page in 256-byte chunks. */
    Status eextend(hw::Paddr secsPage, hw::Paddr epcPage);

    /** EINIT: verifies SIGSTRUCT and finalizes the measurement. */
    Status einit(hw::Paddr secsPage, const SigStruct& sig);

    /** EREMOVE: frees an EPC page (SECS pages require all children gone). */
    Status eremove(hw::Paddr epcPage);

    /** NASSO: associates an (inner, outer) pair after mutual validation. */
    Status nasso(hw::Paddr innerSecsPage, hw::Paddr outerSecsPage);

    // --- ENCLU: transitions (machine_transitions.cpp) --------------------
    /** EENTER: untrusted -> (outer or directly inner) enclave. */
    Status eenter(hw::CoreId core, hw::Paddr tcsPage);

    /** EEXIT: enclave (depth 1) -> untrusted. */
    Status eexit(hw::CoreId core);

    /** NEENTER: outer enclave -> one of its inner enclaves. */
    Status neenter(hw::CoreId core, hw::Paddr tcsPage);

    /** NEEXIT: inner enclave -> its outer enclave. */
    Status neexit(hw::CoreId core);

    /** AEX: asynchronous exit (exception/interrupt); saves the nest. */
    Status aex(hw::CoreId core);

    /** ERESUME: restores the frame stack an AEX saved into the TCS. */
    Status eresume(hw::CoreId core, hw::Paddr tcsPage);

    // --- memory access (machine_access.cpp) ------------------------------
    /**
     * Full Fig.-6 translation + validation for the page containing `va`,
     * as seen by `core`. On success the TLB holds the entry.
     */
    Result<hw::Paddr> translate(hw::CoreId core, hw::Vaddr va, hw::Access a);

    /** Validated data read (charges translation + memory-hierarchy cost). */
    Status read(hw::CoreId core, hw::Vaddr va, std::uint8_t* out,
                std::uint64_t len);

    /** Validated data write. */
    Status write(hw::CoreId core, hw::Vaddr va, const std::uint8_t* in,
                 std::uint64_t len);

    /** Instruction-fetch check for the page containing `va`. */
    Status fetch(hw::CoreId core, hw::Vaddr va);

    // --- paging (machine_paging.cpp) -------------------------------------
    Status eblock(hw::Paddr epcPage);
    Status etrack(hw::Paddr secsPage);

    /** EWB: evicts a blocked, tracked REG page into an untrusted blob. */
    Result<EvictedPage> ewb(hw::Paddr epcPage);

    /** ELDU: reloads an evicted page into a free EPC page. */
    Status eldu(hw::Paddr epcPage, hw::Paddr secsPage,
                const EvictedPage& blob);

    /**
     * Sends IPIs to every core that may cache translations of the given
     * enclave — including cores running its inner enclaves (paper §IV-E).
     * Each hit core takes an AEX.
     */
    void ipiShootdown(hw::Paddr secsPage);

    /** Cores currently referencing the enclave or any descendant inner. */
    std::vector<hw::CoreId> trackedCores(hw::Paddr secsPage) const;

    /**
     * All outer enclaves reachable from `secsPage` through the
     * association graph (BFS order, excluding the start). A chain for
     * the default single-outer model; a DAG under kAttrMultiOuter.
     *
     * Memoized per SECS: the association graph only changes on NASSO
     * and EREMOVE, which drop the cache; a translation miss therefore
     * costs one map lookup instead of an allocating BFS. The returned
     * reference stays valid until the next NASSO/EREMOVE.
     *
     * The overload reports through `cacheHit` whether the memoized
     * closure was served — the access path uses it to price a hit as a
     * single flat check when `Config::closureCacheCosts` is on.
     */
    const std::vector<hw::Paddr>& outerClosure(hw::Paddr secsPage) const;
    const std::vector<hw::Paddr>& outerClosure(hw::Paddr secsPage,
                                               bool* cacheHit) const;

    // --- attestation (machine_attest.cpp) --------------------------------
    /** EREPORT: report of the current enclave, MAC'ed for `target`. */
    Result<Report> ereport(hw::CoreId core, const TargetInfo& target,
                           const ReportData& data);

    /** NEREPORT: EREPORT plus the attested association relations. */
    Result<NestedReport> nereport(hw::CoreId core, const TargetInfo& target,
                                  const ReportData& data);

    /** EGETKEY(report key): only inside the enclave the key belongs to. */
    Result<crypto::Sha256Digest> egetkeyReport(hw::CoreId core);

    /** EGETKEY(seal key): bound to MRSIGNER. */
    Result<crypto::Sha256Digest> egetkeySeal(hw::CoreId core);

    /** EGETKEY(identity seal key): bound to MRENCLAVE *and* MRSIGNER.
     *  The same enclave identity re-derives the same key across rebuilds
     *  and relocations (even on another gateway outer); any other code
     *  or owner identity derives an unrelated key. This is the root the
     *  serving trust path hangs tenant session keys off. */
    Result<crypto::Sha256Digest> egetkeySealIdentity(hw::CoreId core);

    /** Infrastructure view of the identity seal key: what
     *  egetkeySealIdentity returns *inside* an enclave with exactly this
     *  identity. Like verifyNestedReport, this models a party sharing
     *  the device root of trust (the paper's provisioning/verifier
     *  role); nothing in the untrusted stack can recompute it. */
    crypto::Sha256Digest identitySealingKey(const Measurement& mrenclave,
                                            const Measurement& mrsigner) const;

    /** Verifies a report's MAC as the target enclave would. */
    bool verifyReport(const Report& report, const Measurement& targetMr) const;
    bool verifyNestedReport(const NestedReport& report,
                            const Measurement& targetMr) const;

    // --- statistics / observability ---------------------------------------
    /**
     * The counter block is a *view* over the machine's trace bus: every
     * emission site publishes a typed TraceEvent and `StatsSink`
     * (trace/stats.h) folds it into these counters. The accessor API and
     * the field set are unchanged from the pre-bus inline-increment era,
     * and the values are bit-identical.
     */
    using Stats = trace::StatsCounters;
    Stats& stats() { return bus_.counters(); }
    const Stats& stats() const { return bus_.counters(); }

    /** Zeroes the counters without touching attached sinks. */
    void resetStats() { bus_.resetCounters(); }

    /**
     * The machine's trace bus: subscribe ring buffers, Chrome-trace
     * exporters or test sinks here. Mutable on purpose — tracing, like
     * the counters it replaced, is observability, not machine state.
     */
    trace::TraceBus& trace() const { return bus_; }

    // --- fault injection (src/fault) --------------------------------------
    /**
     * Arms deterministic fault injection; nullptr disarms (not owned).
     * With no injector armed every hook is one predictable null-check
     * branch, so the uninstrumented trace/counter stream — including the
     * golden corpus — stays byte-identical.
     */
    void setFaultInjector(fault::FaultInjector* injector)
    {
        faultInjector_ = injector;
    }
    fault::FaultInjector* faultInjector() const { return faultInjector_; }

    /** True when the armed injector fires at `site`; publishes the
     *  FaultInjected event. Only the null check is inline — the decision
     *  and publication live in machine.cpp, off the hot path. */
    bool faultFires(fault::FaultSite site, hw::CoreId core = trace::kNoCore)
    {
        return faultInjector_ != nullptr && faultFiresSlow(site, core);
    }

    // --- switchless ring accounting (machine_transitions.cpp) -------------
    /**
     * One poll of a switchless ring header by a parked in-enclave core:
     * charges the (cacheline-probe-sized) poll cost and publishes a
     * SwitchlessPoll event. Deliberately *not* a leaf — polls must show
     * up in the cost model and the trace without ever counting as a
     * transition, so the poll/transition trade stays honest.
     */
    void ringPoll(hw::CoreId core, std::uint64_t ringId);

    /** Host-side doorbell store after a ring post (cost only). */
    void ringDoorbell(hw::CoreId core, std::uint64_t ringId);

    /** Flushes a core's TLB and clears it from all ETRACK tracking sets. */
    void flushCoreTlb(hw::CoreId core);

    /** Charges the cacheline-granular memory-hierarchy cost for a range. */
    void chargeDataPath(hw::Paddr pa, std::uint64_t len);

  private:
    friend class MachineAccess;

    // --- leaf bodies (public leaves are thin trace wrappers) --------------
    Status ecreateImpl(hw::Paddr secsPage, hw::Vaddr baseAddr,
                       std::uint64_t size, std::uint64_t attributes);
    Status eaddImpl(hw::Paddr secsPage, hw::Paddr epcPage, hw::Vaddr vaddr,
                    PageType type, PagePerms perms, ByteView src);
    Status eextendImpl(hw::Paddr secsPage, hw::Paddr epcPage);
    Status einitImpl(hw::Paddr secsPage, const SigStruct& sig);
    Status eremoveImpl(hw::Paddr epcPage);
    Status nassoImpl(hw::Paddr innerSecsPage, hw::Paddr outerSecsPage);
    Status eenterImpl(hw::CoreId core, hw::Paddr tcsPage);
    Status eexitImpl(hw::CoreId core);
    Status neenterImpl(hw::CoreId core, hw::Paddr tcsPage);
    Status neexitImpl(hw::CoreId core);
    Status aexImpl(hw::CoreId core);
    Status eresumeImpl(hw::CoreId core, hw::Paddr tcsPage);
    Status eblockImpl(hw::Paddr epcPage);
    Status etrackImpl(hw::Paddr secsPage);
    Result<EvictedPage> ewbImpl(hw::Paddr epcPage);
    Status elduImpl(hw::Paddr epcPage, hw::Paddr secsPage,
                    const EvictedPage& blob);
    Result<Report> ereportImpl(hw::CoreId core, const TargetInfo& target,
                               const ReportData& data);
    Result<NestedReport> nereportImpl(hw::CoreId core,
                                      const TargetInfo& target,
                                      const ReportData& data);
    Result<crypto::Sha256Digest> egetkeyReportImpl(hw::CoreId core);
    Result<crypto::Sha256Digest> egetkeySealImpl(hw::CoreId core);
    Result<crypto::Sha256Digest> egetkeySealIdentityImpl(hw::CoreId core);

    /** Enclave id of the core's current (innermost) frame, 0 outside
     *  enclave mode or for the no-core ENCLS context. */
    std::uint64_t coreEid(hw::CoreId core) const
    {
        if (core >= cores_.size()) return 0;
        const auto& frames = cores_[core].frames();
        return frames.empty() ? 0 : frames.back().eid;
    }

    static Status leafStatus(const Status& s) { return s; }
    template <typename T>
    static Status leafStatus(const Result<T>& r) { return r.status(); }

    /** Brackets a leaf body in LeafEnter/LeafExit events. The exit event
     *  is stamped with the *post*-leaf enclave id, so transition events
     *  carry the context they switched to. With no sinks attached only
     *  the exit counter is bumped — the eid lookups are skipped too. */
    template <typename Body>
    auto tracedLeaf(trace::Leaf leaf, hw::CoreId core, std::uint64_t arg0,
                    Body&& body)
    {
        if (!bus_.active()) {
            auto result = body();
            bus_.countLeafExit(leaf, leafStatus(result));
            return result;
        }
        bus_.leafEnter(leaf, core, coreEid(core), arg0);
        auto result = body();
        bus_.leafExit(leaf, core, coreEid(core), leafStatus(result), arg0);
        return result;
    }

    /** TlbHit emission for the translate fast path: the eid lookup only
     *  happens when a sink actually wants the event. */
    void publishTlbHit(hw::CoreId coreId, hw::Vaddr va)
    {
        if (bus_.active()) {
            bus_.publishLight(trace::EventKind::TlbHit, coreId,
                              coreEid(coreId), va);
        } else {
            bus_.countLight(trace::EventKind::TlbHit);
        }
    }

    Result<hw::Paddr> validateAndFill(hw::CoreId coreId, hw::Vaddr va,
                                      hw::Access access);

    /**
     * Internal traced-but-unlocked leaf variants, for call sites that
     * already hold `stateMutex_`: IPI shootdown (exclusive) delivers AEX
     * to tracked cores, and the AexStorm fault hook (shared, inside
     * accessRange) injects AEX+ERESUME mid-access. They emit exactly the
     * same LeafEnter/LeafExit brackets as the public leaves, so the
     * serial trace stream is byte-identical to the pre-locking machine.
     */
    Status aexLocked(hw::CoreId core);
    Status eresumeLocked(hw::CoreId core, hw::Paddr tcsPage);

    /** Body of `translate` without the state lock (accessRange holds it). */
    Result<hw::Paddr> translateLocked(hw::CoreId core, hw::Vaddr va,
                                      hw::Access a);

    /** Body of `flushCoreTlb` without the state lock (AEX/EENTER paths). */
    void flushCoreTlbLocked(hw::CoreId core);

    /**
     * Tag-checked TLB probe: forwards to `Tlb::lookup` with the core's
     * current SECS as the tag, accounting any tag reject in stats and
     * charging the tag-compare cost (tagged mode only).
     */
    const hw::TlbEntry* tlbProbe(hw::Core& core, hw::Vaddr va);

    /** Drops `pagePa` translations from every core (EBLOCK/EWB/EREMOVE). */
    void invalidateTlbForPage(hw::Paddr pagePa);

    /** Drops all of a SECS's tagged translations from every core. */
    void invalidateTlbForSecs(hw::Paddr secsPage);

    /** Invalidates the memoized outer closures (NASSO/EREMOVE). */
    void invalidateClosureCache();

    /** Shared implementation of `read`/`write` with the contiguous-range
     *  fast path. */
    Status accessRange(hw::CoreId core, hw::Vaddr va, std::uint8_t* out,
                       const std::uint8_t* in, std::uint64_t len);

    /** Cold half of faultFires: trigger evaluation + event publication. */
    bool faultFiresSlow(fault::FaultSite site, hw::CoreId core);

    crypto::Sha256Digest reportKeyFor(const Measurement& targetMr) const;

    Config config_;
    hw::PhysicalMemory mem_;
    hw::SimClock clock_;
    hw::CostModel costs_;
    hw::LastLevelCache llc_;
    Epcm epcm_;
    std::vector<hw::Core> cores_;
    std::map<hw::Paddr, Secs> secsTable_;
    std::map<hw::Paddr, Tcs> tcsTable_;
    std::map<std::uint64_t, std::uint64_t> versionArray_;
    std::uint64_t nextVersionSlot_ = 1;
    EnclaveId nextEid_ = 1;
    Bytes rootKey_;
    std::unique_ptr<crypto::AesGcm> pagingGcm_;
    Rng rng_;
    /** Event publication point; owns the Stats counters (trace/bus.h).
     *  Mutable for the same reason `stats_` was: const paths (closure
     *  memoization, oracle introspection) still publish. */
    mutable trace::TraceBus bus_;
    /** Memoized `outerClosure` results; cleared on NASSO/EREMOVE.
     *  std::map for node stability: returned references survive
     *  insertion of other keys. */
    mutable std::map<hw::Paddr, std::vector<hw::Paddr>> closureCache_;
    /** EEXTEND's page-fold memo, shared by every enclave this machine
     *  measures; guarded by the exclusive state lock EEXTEND holds. */
    PageFoldMemo pageFolds_;
    /** Armed fault injector (src/fault), or null. Never owned. */
    fault::FaultInjector* faultInjector_ = nullptr;

    /**
     * Machine-wide reader/writer lock for real-thread mode (§13 of
     * DESIGN.md). Leaves that mutate *structural* state — lifecycle
     * (ECREATE..NASSO), paging (EBLOCK/ETRACK/EWB/ELDU), IPI shootdown,
     * OS-initiated TLB flushes — take it exclusive. Transitions, data
     * accesses and attestation take it shared: they only touch their own
     * core's state (TLB, frame stack) plus structures with their own
     * finer locks (LLC, page tables, EPCM stripes, clock, trace bus).
     *
     * Exclusive acquisition doubles as the epoch/IPI quiesce point: a
     * writer observing the lock means no simulated core is mid-access,
     * so sweeping another core's TLB (invalidateTlbFor*) is race-free
     * without per-TLB locks — TLBs stay lock-free to their owning
     * thread, the concurrency analogue of real IPI shootdown.
     *
     * In single-thread mode the lock is always uncontended and the
     * sequence of machine operations — hence the trace — is unchanged.
     */
    mutable std::shared_mutex stateMutex_;
    /** Guards the ETRACK tracking sets (Secs::trackingSet/trackingActive):
     *  written by shared-mode AEX paths (flushCoreTlbLocked), so the
     *  rwlock alone does not order concurrent erasures. Leaf-level: never
     *  held while acquiring any other lock. */
    mutable std::mutex trackingMutex_;
    /** Guards closureCache_: `outerClosure` memoizes under shared mode.
     *  Leaf-level, like trackingMutex_. */
    mutable std::mutex closureMutex_;
};

}  // namespace nesgx::sgx
