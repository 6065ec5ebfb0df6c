/**
 * The serving layer's top half: EPC pressure management, the worker
 * pool, and the TenantService facade gluing registry + admission +
 * scheduling together.
 *
 * EpcPressureManager keeps the EPC free list above a watermark by
 * paging out the coldest *idle* tenant inner (victims come from the
 * kernel's deterministic LRU, filtered to tenant inners that have no
 * dispatch in flight). TenantRegistry reloads transparently on the
 * victim's next request, so tenants far beyond EPC capacity stay
 * correct — they just pay cold-start reload latency.
 *
 * WorkerPool drains the admission queues batch-at-a-time with one or
 * more workers, each pinned to its own simulated core: one batch = one
 * EENTER + one NEENTER no matter how many requests it carries, which
 * is the transition amortization bench_serve measures.
 *
 * The pool is also where the stack self-heals (DESIGN.md §11): every
 * dispatch failure is classified — *poisoned* errors (paging
 * integrity, lost EPC pages, a trusted function that threw) destroy
 * and rebuild the tenant's inner,
 * *transient* ones retry under a capped budget, and a per-tenant
 * circuit breaker quarantines tenants that keep failing so the rest of
 * the fleet is not starved by a broken one.
 */
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>

#include "attest/verifier.h"
#include "serve/admission.h"
#include "serve/histogram.h"
#include "serve/registry.h"
#include "switchless/engine.h"

namespace nesgx::serve {

class EpcPressureManager {
  public:
    struct Config {
        /** Free-page watermark `relieve` restores after each batch. */
        std::size_t lowWatermarkPages = 32;
    };

    EpcPressureManager(os::Kernel& kernel, TenantRegistry& registry,
                       Config config)
        : kernel_(&kernel), registry_(&registry), config_(config)
    {
    }

    /** Evicts cold idle tenants until at least `pages` EPC pages are
     *  free; OsError when demand cannot be met. */
    Status ensureFree(std::uint64_t pages);

    /** Restores the watermark. A miss (every evictable tenant pinned or
     *  already out) is survivable — the next build pays reserveEpc — but
     *  it is counted, logged, and published, never swallowed. */
    void relieve();

    std::uint64_t pagesWritten() const { return pagesWritten_; }
    std::uint64_t watermarkMisses() const { return watermarkMisses_; }

  private:
    os::Kernel* kernel_;
    TenantRegistry* registry_;
    Config config_;
    /** Relaxed atomics: every worker thread relieves pressure after its
     *  own batches, so the eviction accounting races benignly. */
    Counter pagesWritten_;
    Counter watermarkMisses_;
};

struct Completion {
    std::uint64_t id = 0;
    TenantId tenant = 0;
    Bytes sealedResponse;          ///< empty when the server refused it
    std::uint64_t latencyCycles = 0;
    bool ok = false;
    /** Why `ok` is false: the dispatch error after retries, SealRejected
     *  for a per-request refusal, Unavailable for breaker/rebuild
     *  quarantine. Ok iff `ok` is true. */
    Status status;
    /** The tenant's inner was (or is being) rebuilt while this request
     *  was in flight: the client must reset its expectations and reseal. */
    bool tenantRebuilt = false;

    Err error() const { return status.code(); }
};

class WorkerPool {
  public:
    struct Config {
        std::size_t batchSize = 8;
        /** Extra dispatch attempts for transient failures (0 = none). */
        std::uint32_t maxRetries = 2;
        /** Consecutive failed batches before the tenant's breaker opens. */
        std::uint32_t breakerThreshold = 4;
        /** Cooldown before an open breaker admits a half-open probe. */
        std::uint64_t breakerCooldownCycles = 200000;
        /** Workers run(0) starts. */
        std::size_t threads = 1;
    };

    WorkerPool(TenantRegistry& registry, AdmissionController& admission,
               EpcPressureManager& pressure, Config config);

    /**
     * Drains the queues with `threads` workers (0 = the configured
     * default), each serving at most `maxBatches` batches. Worker t pins
     * simulated core t and owns every tenant whose gateway index is t
     * mod `threads`, so one gateway's staging heap and TCSes are only
     * ever driven by one worker and a tenant's batches keep their
     * seal-sequence order. A worker sweeps its tenants in id order,
     * one batch per tenant with queued work (shedding counts), until a
     * sweep finds nothing. Worker 0 runs inline on the caller's thread,
     * the rest as OS threads. Returns batches served. All tenants must
     * exist before this is called, and trace sinks attach or detach
     * only while it is not running.
     */
    std::size_t run(std::size_t threads,
                    std::size_t maxBatches = std::size_t(-1));

    /** Completed requests since the last drain. */
    std::vector<Completion> drain();

    /** Supervisor entry (escalation ladder's tenant-rebuild rung): owns
     *  the tenant's lock for the whole destroy-and-rebuild, exactly like
     *  the in-batch recovery path. */
    Status rebuildTenant(TenantHandle& tenant);

    /** Supervisor entry (subtree-rebuild rung): disarms every member's
     *  switchless channel, fails their queued requests typed, then
     *  rebuilds the whole gateway subtree bottom-up. */
    Status rebuildSubtree(std::size_t gatewayIndex);

    std::uint64_t dispatchFailures() const { return dispatchFailures_; }
    std::uint64_t retries() const { return retries_; }
    std::uint64_t rebuilds() const { return rebuilds_; }
    /** Whole-gateway-subtree rebuilds (Cvm topology escalation). */
    std::uint64_t subtreeRebuilds() const { return subtreeRebuilds_; }
    std::uint64_t breakerOpens() const { return breakerOpens_; }
    std::uint64_t breakerCloses() const { return breakerCloses_; }
    const Histogram& rebuildLatency() const { return rebuildLatency_; }

  private:
    /** Destroys and rebuilds a poisoned tenant: fails its whole queue
     *  typed (the seals target the dead instance) and times the rebuild.
     *  On failure the tenant stays inner-less and is retried lazily.
     *  Under the Cvm topology a tenant-level rebuild that fails
     *  escalates to rebuildGatewaySubtree — the gateway layer itself may
     *  be the casualty. */
    Status rebuildTenantNow(TenantHandle& tenant);

    /** Completes every request typed with `status`, never ok: shed
     *  deadlines, breaker refusals, failed batches and purged queues all
     *  complete through here. `rebuilt` tells the client its seals
     *  target a destroyed instance. */
    void failTyped(const std::vector<Request>& requests, Status status,
                   bool rebuilt);

    /** Readies a tenant whose instance is about to be destroyed: disarms
     *  its ring and fails its queued requests typed with the rebuilt
     *  flag. */
    void quiesce(TenantId tenantId);

    /** quiesce() for every tenant of the gateway subtree but `skip`. */
    void quiesceSubtree(std::size_t gatewayIndex,
                        const TenantHandle* skip = nullptr);

    /** One worker's loop over the tenants it owns, on `core`. */
    std::size_t serveOwned(const std::vector<TenantHandle*>& owned,
                           hw::CoreId core, std::size_t maxBatches);

    /** Takes + serves one batch for `tenant` on `core`: shed
     *  completions, the breaker gate, the retry loop, completion
     *  delivery, then pressure relief. */
    void processTenant(TenantHandle& tenant, hw::CoreId core);

    /** The locked middle of processTenant: everything from the breaker
     *  gate through breaker bookkeeping, under the tenant's own lock
     *  (the breaker is the tenant's, TenantHandle::breaker). */
    void serveBatch(TenantHandle& tenant, std::vector<Request> batch,
                    hw::CoreId core);

    TenantRegistry* registry_;
    AdmissionController* admission_;
    EpcPressureManager* pressure_;
    Config config_;
    std::uint32_t cores_;  ///< worker cores [0, cores_)
    /** Completions are pushed by every worker and swapped out by drain. */
    mutable std::mutex completionsM_;
    std::vector<Completion> completions_;
    mutable std::mutex rebuildM_;  ///< rebuildLatency_ sample inserts
    Histogram rebuildLatency_;
    Counter dispatchFailures_;
    Counter retries_;
    Counter rebuilds_;
    Counter subtreeRebuilds_;
    Counter breakerOpens_;
    Counter breakerCloses_;
};

/** The whole serving stack behind one object. */
class TenantService {
  public:
    struct Config {
        TenantRegistry::Config registry;
        AdmissionController::Config admission;
        WorkerPool::Config pool;
        EpcPressureManager::Config pressure;
        /** Exit-less dispatch (src/switchless) on rings the registry
         *  owns. Off by default: classic traces stay byte-identical. */
        switchless::Config switchless;
        /**
         * NEREPORT-gated onboarding (src/attest): addTenant admits a
         * tenant only after its evidence chain verifies — inner identity,
         * author signer, gateway-outer binding, topology-implied chain
         * depth, nonce freshness, and EGETKEY-rooted session-key binding.
         * Off = the legacy faith-based admission with out-of-band keys.
         */
        bool attestOnboarding = false;
        /** Override of the chain depth the verifier demands (tests/CI
         *  prove end-to-end refusal on a topology/depth mismatch). */
        std::optional<std::uint32_t> attestDepthOverride;
    };

    TenantService(sdk::Urts& urts, Config config);

    /** Lazily instantiates the tenant (registry + pressure headroom) and
     *  marks it `verified`, the mark dispatch requires. Under
     *  attestOnboarding the mark waits for NEREPORT chain verification;
     *  a failed verification tears the instance back down and returns
     *  Err::AttestationFailed. `image`: the tenant image a host move
     *  ships (TenantRegistry::ensure). */
    Result<TenantHandle*> addTenant(
        TenantId id, Workload workload,
        std::shared_ptr<const sdk::SignedEnclave> image = nullptr);

    /** Attestation-gated onboarding active? (Migration re-attests.) */
    bool attestationEnabled() const { return config_.attestOnboarding; }

    /** The tenant's EGETKEY-rooted session key, TenantHandle::sessionKey
     *  (empty = never attested or unknown here: the client should fall
     *  back to the out-of-band tenantKey). */
    Bytes sessionKeyFor(TenantId id) const;

    /**
     * Challenges `inner` (freshly built, associated, and reachable via
     * its ancestor chain) and verifies the evidence against this
     * service's policy for tenant `id` hosted by gateway `gatewayIndex`.
     * On success at onboarding (the tenant is not yet `verified`) the
     * session key is recorded on the tenant's handle. Also used by the
     * migration engine to re-attest a staged destination instance, whose
     * import then restores the session's own key.
     */
    attest::Verdict attestInner(sdk::LoadedEnclave* inner, TenantId id,
                                std::size_t gatewayIndex);

    /** Disarms, purges, forgets, and unloads a tenant (onboarding
     *  rejection or the source half of a cross-host move). */
    Status removeTenant(TenantId id);

    /** Admits one sealed request for an existing tenant. */
    Status submit(TenantId tenant, Bytes sealed);

    /** What an epoch-fenced client resolves before stamping requests. */
    struct Placement {
        std::uint64_t epoch = 0;        ///< 0 = tenant unknown here
        std::uint64_t incarnation = 0;  ///< bumps only on state loss
    };

    /** Current placement of a tenant ({0, 0} when unknown). */
    Placement placement(TenantId id);

    /**
     * Epoch-fenced admission: `stamped` is stampEpoch(epoch, sealed) —
     * a host-side [u64 epoch LE] prefix the server strips before the
     * sealed bytes ever reach an enclave (machine-visible traffic stays
     * byte-identical to the unfenced path). A stale epoch refuses with
     * Err::WrongEpoch: the redirect telling the client to re-resolve
     * placement and reseal/restamp. Plain submit() stays unfenced.
     */
    Status submitStamped(TenantId tenant, Bytes stamped);

    /** Drains the queues with one worker on core 0 (or serves
     *  maxBatches), see WorkerPool::run. */
    std::size_t pump(std::size_t maxBatches = std::size_t(-1))
    {
        return pool_.run(1, maxBatches);
    }

    /** Drains the queues with `threads` workers (WorkerPool::run);
     *  pumpParallel(1) is pump(). */
    std::size_t pumpParallel(std::size_t threads)
    {
        return pool_.run(threads);
    }

    std::vector<Completion> drain() { return pool_.drain(); }

    /** Parks every existing tenant's ring pollers up front (classic
     *  entries), so requests are transition-free from the first batch.
     *  Returns rings armed (0 with switchless off); a failed arming
     *  degrades to classic dispatch, never an error. */
    std::size_t armSwitchless() { return registry_.armRings(); }

    TenantRegistry& registry() { return registry_; }
    AdmissionController& admission() { return admission_; }
    EpcPressureManager& pressure() { return pressure_; }
    WorkerPool& pool() { return pool_; }
    /** The registry's ring engine, or nullptr when switchless is off. */
    switchless::SwitchlessEngine* switchlessEngine()
    {
        return registry_.switchlessEngine();
    }

  private:
    Config config_;
    TenantRegistry registry_;
    AdmissionController admission_;
    EpcPressureManager pressure_;
    WorkerPool pool_;
    std::unique_ptr<attest::TenantVerifier> verifier_;
};

}  // namespace nesgx::serve
