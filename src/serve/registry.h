/**
 * TenantRegistry: one inner enclave per tenant, lazily instantiated
 * inside a pool of shared outer "gateway" enclaves.
 *
 * The deployment shape is the paper's §VI library model turned into a
 * multi-tenant service: every gateway outer holds the shared request
 * plumbing (staging buffers, batch framing) and is signed to accept any
 * inner by the service author's MRSIGNER, so tenants can be created
 * *after* the outer is built and EINITed — NASSO's signer expectation is
 * what admits them. Each gateway takes at most `tenantsPerOuter`
 * tenants; the next tenant spills over into a freshly built gateway.
 *
 * A dispatch is one EENTER into the gateway plus one NEENTER into the
 * tenant's inner regardless of how many requests ride in the batch: the
 * gateway stages the sealed batch into its own heap and hands the inner
 * a [va, len] descriptor, and the inner reads/writes that staging region
 * in place through the nested access-validation path (by-reference
 * sharing, §IV-A).
 *
 * The registry also owns tenant-granular paging: evictTenant writes a
 * tenant's evictable inner pages out through EBLOCK/ETRACK/EWB, and
 * ensureResident transparently ELDUs them back before the next
 * dispatch touches the enclave. With switchless on it owns the rings.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/compose.h"
#include "sdk/runtime.h"
#include "serve/protocol.h"
#include "support/counter.h"
#include "switchless/engine.h"

namespace nesgx::serve {

/** Deployment shape of the enclave fleet. */
enum class Topology {
    /** Gateways are depth-1 roots, tenants depth-2 inners (historical
     *  two-level layout; byte-identical to the pre-topology registry). */
    Flat,
    /** A single depth-1 "CVM" root enclave hosts every gateway as a
     *  depth-2 inner, and tenants sit at depth 3 under their gateway —
     *  the paper's §VIII arbitrary-depth nesting as a served tree. A
     *  dispatch is one EENTER into the CVM plus one NEENTER per hop. */
    Cvm,
};

struct TenantHandle {
    TenantId id = 0;
    Workload workload = Workload::Echo;
    /** The inner's signed image: built when this record was created (or
     *  shipped with a host move), immutable after. Every rebuild,
     *  relocation and host move loads it again, bound to fresh trusted
     *  functions, so nothing is signed twice. */
    std::shared_ptr<const sdk::SignedEnclave> image;
    /** Inner enclave; nullptr while a poisoned tenant awaits rebuild.
     *  Changed only through setInner. */
    sdk::LoadedEnclave* inner = nullptr;
    /** The inner's SECS page (0 while inner-less), published with
     *  `inner`: the eviction victim lookup reads this from any worker,
     *  never another tenant's `inner`, which its owner may be replacing
     *  (and unloading) meanwhile. */
    std::atomic<hw::Paddr> innerSecs{0};
    std::size_t gatewayIndex = 0;
    std::uint32_t slot = 0;  ///< slot within the gateway
    /**
     * Ownership lock for threaded serving. The worker thread that owns
     * this tenant (gatewayIndex % threads) holds it across the whole
     * batch attempt — residency, dispatch, rebuild — while the pressure
     * manager only ever try_locks it from `evictTenant` and skips a
     * contended victim. try_lock is what makes the cross-thread order
     * (own tenant held -> victim tenant tried) deadlock-free.
     */
    std::mutex m;
    /** A dispatch is in flight. Read lock-free by the eviction victim
     *  filter on other worker threads; `m` is the real exclusion. */
    std::atomic<bool> busy{false};
    /** EGETKEY-rooted session key recorded by onboarding attestation:
     *  the service's copy handed to clients (the authoritative one lives
     *  inside the inner). Empty while the tenant is on the out-of-band
     *  tenantKey(). A rebuild re-runs provisioning when it is set, so the
     *  fresh instance re-derives the key the client still holds. */
    Bytes sessionKey;
    /** `sessionKey` sealed by the inner under this host's identity: set
     *  by adoptSessionKey after a cross-host import brought a key this
     *  host cannot re-derive. A rebuild hands it to the fresh instance,
     *  which unseals it instead of deriving. */
    Bytes sealedSessionKey;
    /** Admission mark: addTenant sets it once onboarding passed
     *  (attestation, when enabled). dispatch refuses a tenant without
     *  it. */
    bool verified = false;
    /** Circuit breaker (DESIGN.md §11 state machine). Only the owning
     *  worker writes it, under `m`; `open` is atomic because the
     *  supervisor reads it from its own thread. It lives and dies with
     *  this record, so a tenant onboarded again starts closed. */
    struct Breaker {
        std::uint32_t consecutiveFailures = 0;
        std::atomic<bool> open{false};
        std::uint64_t probeAt = 0;  ///< cycles; half-open gate
    } breaker;
    Counter evictions;  ///< times paged out by pressure
    Counter reloads;    ///< cold-start reloads
    Counter rebuilds;   ///< destroy-and-rebuild recoveries
    Counter migrations; ///< live relocations (gateway or host moves)
    /**
     * Placement epoch: monotonically bumped by every rebuild, subtree
     * rebuild and committed relocation. Epoch-fenced submits compare a
     * client's stamped epoch against this and refuse stale ones with
     * Err::WrongEpoch, so a client can never silently talk past a move.
     */
    std::atomic<std::uint64_t> epoch{1};
    /** Incarnation: bumps only when in-enclave state was lost (tenant or
     *  subtree rebuild), never on a live relocation — re-resolving
     *  clients use it to decide whether to reset their expectations. */
    std::atomic<std::uint64_t> incarnation{1};
    Counter okServed;   ///< verified-ok completions (supervisor heartbeat)
    Counter wrongEpochs; ///< stale-epoch submits refused

    void setInner(sdk::LoadedEnclave* enclave)
    {
        inner = enclave;
        innerSecs.store(enclave ? enclave->secsPage() : 0,
                        std::memory_order_relaxed);
    }
};

class TenantRegistry {
  public:
    struct Config {
        std::uint32_t tenantsPerOuter = 4;
        /** Inner (per-tenant) enclave shape. */
        std::uint64_t innerCodePages = 8;
        std::uint64_t innerHeapPages = 16;
        /** Outer (gateway) enclave shape. */
        std::uint64_t outerCodePages = 24;
        std::uint64_t outerHeapPages = 48;
        /** Fleet shape; Cvm inserts a shared depth-1 root above the
         *  gateways (see Topology). */
        Topology topology = Topology::Flat;
        /** CVM root enclave shape (Cvm topology only). The TCS pool must
         *  cover every concurrent entry into the tree: one per worker
         *  thread plus — under switchless — one per parked poller
         *  (root + per-gateway + per-tenant), so callers size it to
         *  roughly tenants + gateways + threads + spare. */
        std::uint64_t cvmCodePages = 24;
        std::uint64_t cvmHeapPages = 64;
        std::uint32_t cvmTcs = 4;
    };

    /** `rings.enabled`: build and own the ring engine dispatch rides,
     *  and seat its parked pollers in every gateway's and inner's TCSes. */
    TenantRegistry(sdk::Urts& urts, Config config,
                   switchless::Config rings = {});

    /** Hook run before any enclave build: make `pages` EPC pages free
     *  (the pressure manager installs itself here). */
    void setEpcReserve(std::function<Status(std::uint64_t)> hook)
    {
        epcReserve_ = std::move(hook);
    }

    /** Existing tenant or nullptr (never instantiates). */
    TenantHandle* find(TenantId id);
    const TenantHandle* find(TenantId id) const;

    /** Lazily instantiates the tenant's inner (and a gateway if the
     *  current one is full). A new record signs the tenant's image here,
     *  once; a host move passes the `image` the source already holds
     *  (code is public, only state is sealed), and nothing is signed. */
    Result<TenantHandle*> ensure(
        TenantId id, Workload workload,
        std::shared_ptr<const sdk::SignedEnclave> image = nullptr);

    /** The only way a batch (a packBatch() for the tenant's slot)
     *  reaches a tenant. The gate runs first: the gateway-crash and
     *  host-degrade sites and markers and an inner-less tenant refuse
     *  Unavailable, an un-`verified` one AttestationFailed. Then the
     *  batch rides the tenant's ring if one is or can be armed, else
     *  EENTERs the gateway, whose dispatch NEENTERs the inner. */
    Result<Bytes> dispatch(TenantHandle& tenant, ByteView blob,
                           hw::CoreId core);

    /** Arms a ring for every tenant without one; returns the tenants
     *  riding one (0 with rings off). */
    std::size_t armRings();

    /** Tears the tenant's ring down, if any; runs before its chain's
     *  enclaves are rebuilt, moved or unloaded (pollers hold TCSes). */
    void disarm(TenantId id);

    /** The ring engine, or nullptr when rings are off. */
    switchless::SwitchlessEngine* switchlessEngine() { return engine_.get(); }

    /** ELDUs every evicted page of the tenant's inner back in. Returns
     *  the number of pages reloaded (0 = was already resident). */
    Result<std::uint64_t> ensureResident(TenantHandle& tenant);

    /** Pages the tenant's inner out (best effort: TCS/pinned pages are
     *  skipped). Returns pages actually written back. */
    std::uint64_t evictTenant(TenantHandle& tenant);

    /** Destroys a poisoned tenant's inner and builds a fresh one into
     *  the same gateway slot. The replay window, sql tables, everything
     *  in-enclave is lost — the client must reset its expectations. On
     *  failure the tenant is left inner-less (`inner == nullptr`) and
     *  quarantined until a later rebuild succeeds. */
    Status rebuildTenant(TenantHandle& tenant);

    /**
     * Pages the whole gateway subtree out: every tenant inner of the
     * gateway plus the gateway enclave's own evictable pages. Returns
     * pages written back; ensureResident reloads the chain transparently
     * before the next dispatch.
     */
    std::uint64_t evictSubtree(std::size_t gatewayIndex);

    /**
     * Destroys and rebuilds a whole gateway subtree: every tenant inner
     * of the gateway, then the gateway enclave itself, then fresh
     * instances bottom-up (gateway first, tenants re-associated into
     * it). The recovery of last resort when the gateway layer itself is
     * the casualty — every tenant of the subtree loses its in-enclave
     * state exactly as rebuildTenant would lose one.
     *
     * Every tenant of the subtree is locked here, in id order, so the
     * pressure manager cannot evict a half-dead enclave; with
     * `membersLocked` the caller already holds them all (the escalating
     * worker, through trySiblingLocks). On partial failure affected
     * tenants are left inner-less and are retried lazily, same contract
     * as rebuildTenant.
     */
    Status rebuildGatewaySubtree(std::size_t gatewayIndex,
                                 bool membersLocked = false);

    /** The `m` locks of some tenants, released on destruction. */
    using SubtreeLocks = std::vector<std::unique_lock<std::mutex>>;

    /**
     * Tries the lock of every other tenant on `held`'s gateway, for a
     * caller that holds `held.m`. Blocking there could invert the id
     * order in which a supervisor's subtree rung locks them, so one
     * held sibling releases what was taken and returns nothing.
     */
    std::optional<SubtreeLocks> trySiblingLocks(const TenantHandle& held);

    // --- trust path / migration (registry side) --------------------------

    /**
     * Runs the in-enclave provisioning ecall on `inner` through its full
     * ancestor chain: the enclave derives its EGETKEY-rooted session key,
     * installs it (resetting replay state), and returns an encoded
     * NEREPORT evidence blob MAC'ed for `verifierMr` whose reportData
     * binds SHA256(nonce) || SHA256(sessionKey).
     */
    Result<Bytes> provisionInner(sdk::LoadedEnclave* inner,
                                 const sgx::Measurement& verifierMr,
                                 ByteView nonce);

    /** Installs the session key only (no evidence): the rebuild path's
     *  way to keep a verified tenant's key stable. The inner re-derives
     *  it, or unseals `sealedKey` when given (TenantHandle::
     *  sealedSessionKey). */
    Status rekeyInner(sdk::LoadedEnclave* inner, ByteView sealedKey);

    /** After a cross-host import: records `sessionKey`, the source's key
     *  the imported inner now serves with, as the tenant's, and has the
     *  inner seal it under this host's identity (sealedSessionKey), so a
     *  rebuild here restores the key the client holds. */
    Status adoptSessionKey(TenantHandle& tenant, Bytes sessionKey);

    /** In-enclave export: the inner seals its TenantSnapshot under a
     *  migration transport key bound to destination identity `dstMr`. */
    Result<Bytes> exportInner(sdk::LoadedEnclave* inner,
                              const sgx::Measurement& dstMr);

    /** In-enclave import: the inner opens a snapshot sealed by source
     *  identity `srcMr` and resumes the session (key, replay counter,
     *  journal-replayed database). */
    Status importInner(sdk::LoadedEnclave* inner,
                       const sgx::Measurement& srcMr, ByteView sealed);

    /** EWB-drains the tenant's inner pages (caller holds `tenant.m`).
     *  Returns pages written back. */
    std::uint64_t drainTenantLocked(TenantHandle& tenant);

    /** A staged-but-uncommitted destination instance of a relocation. */
    struct RelocationTicket {
        std::size_t gatewayIndex = 0;
        std::uint32_t slot = 0;
        sdk::LoadedEnclave* inner = nullptr;
    };

    /** A gateway with a free slot other than `exclude` (building a fresh
     *  one if every other gateway is full). */
    Result<std::size_t> pickGatewayExcept(std::size_t exclude);

    /** Loads a fresh inner of the tenant's image inside `targetGateway`
     *  without touching the live one — the destination half of a
     *  migration. The source keeps serving until commitRelocation(). */
    Result<RelocationTicket> stageRelocation(TenantHandle& tenant,
                                             std::size_t targetGateway);

    /** Destroys a staged destination instance (migration abort). */
    void abandonRelocation(const RelocationTicket& ticket);

    /** Tears down the source instance and swaps the staged one in;
     *  `tenant` now lives in the ticket's gateway slot. */
    Status commitRelocation(TenantHandle& tenant,
                            const RelocationTicket& ticket);

    /** Unloads a tenant's inner and forgets the tenant entirely (the
     *  source half of a cross-host move, or an onboarding rejection). */
    Status retireTenant(TenantId id);

    /** Tenant owning this inner SECS, or nullptr (victim filtering).
     *  Safe from any worker: it compares published SECS pages only. */
    TenantHandle* tenantBySecs(hw::Paddr secsPage);

    // --- failure-domain health markers -----------------------------------

    /** Marks a gateway crashed: every data-plane dispatch through it
     *  refuses with Err::Unavailable until rebuildGatewaySubtree brings
     *  the subtree back (which clears the marker). The gateway-crash
     *  fault site sets this from the dispatch path. */
    void crashGateway(std::size_t index)
    {
        gateways_[index].crashed.store(true, std::memory_order_relaxed);
    }
    bool gatewayCrashed(std::size_t index) const
    {
        return gateways_[index].crashed.load(std::memory_order_relaxed);
    }

    /** Marks the whole host degraded: the data plane refuses while the
     *  control plane (provision/export/import/rebuild) keeps working, so
     *  a supervisor can still evacuate tenants off the dying host. */
    void setDegraded(bool on)
    {
        degraded_.store(on, std::memory_order_relaxed);
    }
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

    std::size_t gatewayCount() const { return gateways_.size(); }
    std::size_t tenantCount() const { return tenants_.size(); }
    Topology topology() const { return config_.topology; }

    /** The shared depth-1 root (Cvm topology; nullptr under Flat). */
    sdk::LoadedEnclave* cvmRoot() { return cvmRoot_; }

    /**
     * Root-first dispatch chain down to the tenant: {gateway, inner}
     * under Flat, {cvm, gateway, inner} under Cvm. Empty while any link
     * is missing (inner-less tenant, gateway mid subtree rebuild).
     */
    std::vector<sdk::LoadedEnclave*> dispatchChain(const TenantHandle& tenant);

    /** Gateway outer enclave by index. */
    sdk::LoadedEnclave* gatewayOuter(std::size_t index)
    {
        return index < gateways_.size() ? gateways_[index].outer : nullptr;
    }

    /** All tenants, by id. */
    const std::map<TenantId, std::unique_ptr<TenantHandle>>& tenants() const
    {
        return tenants_;
    }

    sdk::Urts& urts() { return *urts_; }

  private:
    /** Per-gateway state shared with the gateway's ecall lambda. */
    struct GatewayState {
        explicit GatewayState(std::size_t slotCount) : slots(slotCount) {}
        hw::Vaddr stagingVa = 0;
        std::uint64_t stagingCap = 0;
        std::vector<sdk::LoadedEnclave*> slots;
    };

    /** One gateway's record. It never moves (gateways_ is a deque), so
     *  workers read `crashed` without a lock. */
    struct Gateway {
        /** Signed once by addGateway; every makeGateway loads it. */
        std::shared_ptr<const sdk::SignedEnclave> image;
        sdk::LoadedEnclave* outer = nullptr;
        std::shared_ptr<GatewayState> state;
        /** Slot ownership, the only record of which slots are free. A
         *  slot stays owned while its tenant is inner-less (its
         *  `state->slots` entry is null until a rebuild succeeds), so
         *  the dispatch table alone cannot tell free from quarantined.
         *  Survives gateway rebuilds, which replace `state`. */
        std::vector<bool> owned;
        /** Crash marker, read on every dispatch through this gateway.
         *  Survives gateway rebuilds; only a fully successful subtree
         *  rebuild clears it. */
        std::atomic<bool> crashed{false};

        bool hasRoom() const
        {
            return std::find(owned.begin(), owned.end(), false) !=
                   owned.end();
        }
    };

    Status reserveEpc(std::uint64_t pages);
    /** The tenant's ring endpoint over `chain`, armed now if it is not;
     *  nullopt when rings are off or arming fails. */
    std::optional<switchless::Endpoint> ring(
        const TenantHandle& tenant,
        const std::vector<sdk::LoadedEnclave*>& chain);
    /** Claims the gateway's first unowned slot for `inner` (the caller
     *  checked hasRoom()). ensure and stageRelocation both place tenants
     *  through here. */
    std::uint32_t claimSlot(Gateway& gateway, sdk::LoadedEnclave* inner);
    /** Frees a slot: ownership and dispatch entry together. */
    void releaseSlot(Gateway& gateway, std::uint32_t slot);
    /** Loads gateway `index`'s image into its record, bound to a fresh
     *  dispatch table: a new enclave, slot ownership and crash marker
     *  kept; the record is untouched on failure. Cvm associates the
     *  enclave under the root. */
    Status makeGateway(std::size_t index);
    /** Appends the next gateway record, signs its image and loads it;
     *  returns its index. */
    Result<std::size_t> addGateway();
    /** gw_dispatch over `state`: the functions a gateway load binds. */
    std::shared_ptr<sdk::EnclaveInterface> gatewayFunctions(
        std::shared_ptr<GatewayState> state) const;
    /** Lazily builds the shared CVM root (Cvm topology). */
    Status ensureCvmRoot();
    /** Reloads every evicted page of `enclave` (chain residency). */
    Status reloadEnclave(sdk::LoadedEnclave* enclave, std::uint64_t* pages);
    /** The trusted functions a tenant inner runs, over a fresh
     *  ServerState: what every load of the tenant's image binds. */
    static std::shared_ptr<sdk::EnclaveInterface> tenantFunctions(
        TenantId id, Workload workload);
    /** Loads a tenant image bound to `functions` and associates it
     *  under `gateway`. Onboarding, rebuilds and relocations all
     *  instantiate inners through here. */
    Result<sdk::LoadedEnclave*> loadInner(
        std::shared_ptr<const sdk::SignedEnclave> image,
        std::shared_ptr<const sdk::EnclaveInterface> functions,
        Gateway& gateway);
    /** Detaches the tenant's inner from its slot and unloads it; a
     *  refused destroy restores both and returns the error. No-op for an
     *  inner-less tenant. Every teardown of a tenant goes through here. */
    Status unloadInner(TenantHandle& tenant);
    /** Loads a fresh inner into the tenant's (empty) slot: load, rekey
     *  when it holds a session key, install, bump
     *  rebuilds/epoch/incarnation and publish ServeTenantRebuild. On
     *  failure the tenant stays inner-less. */
    Status rebuildInner(TenantHandle& tenant);
    /** EWBs every evictable page of `enclave` (null-safe); returns pages
     *  written. Tenant eviction, subtree eviction and the migration
     *  drain all page out through here. */
    std::uint64_t writeOut(sdk::LoadedEnclave* enclave);
    /** The control plane's ecall (provisioning, rekey, key sealing,
     *  export, import): `name` through `inner`'s whole chain on core 0,
     *  under that core's lock. */
    Result<Bytes> controlCall(sdk::LoadedEnclave* inner, const char* name,
                              ByteView arg);

    sdk::Urts* urts_;
    Config config_;
    std::function<Status(std::uint64_t)> epcReserve_;
    sdk::LoadedEnclave* cvmRoot_ = nullptr;
    std::deque<Gateway> gateways_;
    std::map<TenantId, std::unique_ptr<TenantHandle>> tenants_;
    /** Serializes gateway-layer reconstruction. Two workers self-healing
     *  different tenants of the same downed gateway (each under its own
     *  tenant mutex only) would otherwise both makeGateway and the
     *  second assignment would orphan the first's enclave — pages the
     *  pressure manager can never evict. Ordering: tenant mutexes are
     *  always taken before this one, never after. */
    std::mutex gatewayRebuildM_;
    /** One lock per simulated core, so a core runs one entry at a time.
     *  dispatch holds its batch core's; worker threads pin distinct
     *  cores, so that one is uncontended. controlCall holds core 0's:
     *  the supervisor, or a worker rebuilding a poisoned tenant, enters
     *  there while another worker may be dispatching on it. Taken after
     *  tenant mutexes and gatewayRebuildM_, never before. */
    std::unique_ptr<std::mutex[]> coreM_;
    std::atomic<bool> degraded_{false};
    /** Last member, so it disarms every ring before anything else goes. */
    std::unique_ptr<switchless::SwitchlessEngine> engine_;
};

}  // namespace nesgx::serve
