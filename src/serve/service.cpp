#include "serve/service.h"

#include <algorithm>
#include <set>
#include <thread>

#include "support/logging.h"

namespace nesgx::serve {

namespace {

/** Seed of the onboarding verifier's nonce stream. */
constexpr std::uint64_t kAttestNonceSeed = 0x0a77e57;

/** Errors that mean the tenant's inner enclave state can no longer be
 *  trusted or reached: a retry against the same instance is pointless,
 *  only destroy-and-rebuild recovers. A trusted function that threw
 *  left its enclave in whatever state the throw interrupted. */
bool
poisonedStatus(Status st)
{
    switch (st.code()) {
      case Err::PagingIntegrity:
      case Err::InvalidEpcPage:
      case Err::PageFault:
      case Err::EnclaveCrashed:
        return true;
      default:
        return false;
    }
}

}  // namespace

Status
EpcPressureManager::ensureFree(std::uint64_t pages)
{
    // Tenants whose eviction freed nothing this round (fully pinned):
    // excluded so the loop cannot spin on them.
    std::set<hw::Paddr> barren;
    while (kernel_->freeEpcPages() < pages) {
        // The victim is the tenant the filter accepted last. Resolving
        // its SECS page again after the pick can miss: the tenant's
        // owner may have replaced its inner meanwhile.
        TenantHandle* tenant = nullptr;
        auto victim = kernel_->pickEvictVictim([&](hw::Paddr secs) {
            if (barren.count(secs)) return false;
            tenant = registry_->tenantBySecs(secs);
            return tenant != nullptr && !tenant->busy;
        });
        if (!victim) return Err::OsError;
        std::uint64_t written = registry_->evictTenant(*tenant);
        if (written == 0) {
            barren.insert(victim.value());
            continue;
        }
        pagesWritten_ += written;
    }
    return Status::ok();
}

void
EpcPressureManager::relieve()
{
    Status st = ensureFree(config_.lowWatermarkPages);
    if (st) return;
    ++watermarkMisses_;
    const std::uint64_t free = kernel_->freeEpcPages();
    NESGX_WARN << "epc pressure: watermark miss ("
               << config_.lowWatermarkPages << " wanted, " << free
               << " free, " << st.name() << ")";
    registry_->urts().machine().trace().publishLight(
        trace::EventKind::ServeWatermarkMiss, trace::kNoCore, 0,
        config_.lowWatermarkPages, free);
}

WorkerPool::WorkerPool(TenantRegistry& registry,
                       AdmissionController& admission,
                       EpcPressureManager& pressure, Config config)
    : registry_(&registry), admission_(&admission), pressure_(&pressure),
      config_(config),
      // Host workers keep the low cores; the engine takes poller cores
      // from the top of the core space.
      cores_(registry.switchlessEngine()
                 ? registry.switchlessEngine()->config().hostCores
                 : registry.urts().machine().coreCount())
{
}

void
WorkerPool::failTyped(const std::vector<Request>& requests, Status status,
                      bool rebuilt)
{
    if (requests.empty()) return;
    const std::uint64_t now = registry_->urts().machine().clock().cycles();
    std::lock_guard<std::mutex> c(completionsM_);
    for (const Request& r : requests) {
        Completion done;
        done.id = r.id;
        done.tenant = r.tenant;
        done.latencyCycles = now - r.enqueuedAt;
        done.status = status;
        done.tenantRebuilt = rebuilt;
        completions_.push_back(std::move(done));
    }
}

void
WorkerPool::quiesce(TenantId tenantId)
{
    // The tenant's ring poller is parked inside the instance about to
    // be destroyed: drain-or-poison its rings and unpark it first, or
    // EREMOVE would refuse the busy TCS pages forever.
    registry_->disarm(tenantId);
    // Everything the tenant still has queued was sealed against that
    // instance; fail it typed so the client reseals against the rebuilt
    // server instead of replaying stale sequence numbers.
    failTyped(admission_->purge(tenantId), Err::Unavailable, true);
}

void
WorkerPool::quiesceSubtree(std::size_t gatewayIndex, const TenantHandle* skip)
{
    for (const auto& [id, member] : registry_->tenants()) {
        if (member->gatewayIndex == gatewayIndex && member.get() != skip) {
            quiesce(id);
        }
    }
}

Status
WorkerPool::rebuildTenantNow(TenantHandle& tenant)
{
    sgx::Machine& machine = registry_->urts().machine();
    quiesce(tenant.id);
    const std::uint64_t begin = machine.clock().cycles();
    Status st = registry_->rebuildTenant(tenant);
    if (!st && registry_->topology() == Topology::Cvm) {
        // Cvm escalation: the tenant refused to come back on its own —
        // the gateway layer itself may be the casualty, so rebuild the
        // whole subtree, quiescing the siblings exactly like the
        // caller's own tenant first. The caller holds this tenant's
        // lock, so the siblings' are only tried; a held one fails the
        // rung typed before anything is quiesced or torn down.
        if (auto siblings = registry_->trySiblingLocks(tenant)) {
            quiesceSubtree(tenant.gatewayIndex, &tenant);
            st = registry_->rebuildGatewaySubtree(tenant.gatewayIndex, true);
        } else {
            st = Err::Unavailable;
        }
        ++subtreeRebuilds_;
        machine.trace().publishLight(trace::EventKind::ServeTenantRebuild,
                                     trace::kNoCore, 0, tenant.id,
                                     tenant.gatewayIndex);
    }
    {
        std::lock_guard<std::mutex> h(rebuildM_);
        rebuildLatency_.add(machine.clock().cycles() - begin);
    }
    ++rebuilds_;
    return st;
}

Status
WorkerPool::rebuildTenant(TenantHandle& tenant)
{
    std::lock_guard<std::mutex> own(tenant.m);
    return rebuildTenantNow(tenant);
}

Status
WorkerPool::rebuildSubtree(std::size_t gatewayIndex)
{
    sgx::Machine& machine = registry_->urts().machine();
    const std::uint64_t begin = machine.clock().cycles();
    quiesceSubtree(gatewayIndex);
    Status st = registry_->rebuildGatewaySubtree(gatewayIndex);
    ++subtreeRebuilds_;
    {
        std::lock_guard<std::mutex> h(rebuildM_);
        rebuildLatency_.add(machine.clock().cycles() - begin);
    }
    return st;
}

void
WorkerPool::processTenant(TenantHandle& tenant, hw::CoreId core)
{
    std::vector<Request> shedRequests;
    std::vector<Request> batch =
        admission_->takeBatch(tenant.id, config_.batchSize, &shedRequests);

    // Shed requests complete typed — the client sees Err::Deadline, not
    // silence — even (especially) when every entry at the head expired
    // and the batch below is empty.
    failTyped(shedRequests, Err::Deadline, false);
    if (batch.empty()) return;  // everything at the head was shed

    serveBatch(tenant, std::move(batch), core);

    // Restore the EPC watermark before the next tenant needs pages.
    pressure_->relieve();
}

void
WorkerPool::serveBatch(TenantHandle& tenant, std::vector<Request> batch,
                       hw::CoreId core)
{
    sgx::Machine& machine = registry_->urts().machine();

    // Own the tenant for the whole attempt: residency, dispatch and
    // rebuild all happen under this lock, so the pressure manager (which
    // only try_locks from evictTenant) can never page out a tenant that
    // is mid-batch on another thread.
    std::lock_guard<std::mutex> own(tenant.m);

    // Circuit breaker: while open, refuse the batch outright unless the
    // cooldown has elapsed — then exactly this batch goes through as the
    // half-open probe.
    TenantHandle::Breaker& breaker = tenant.breaker;
    if (breaker.open) {
        bool probeDue = false;
#ifndef NESGX_BUG_BREAKER_STUCK
        probeDue = machine.clock().cycles() >= breaker.probeAt;
#endif
        if (!probeDue) {
            failTyped(batch, Err::Unavailable, false);
            return;
        }
    }

    Status finalStatus = Err::Unavailable;
    std::vector<Bytes> responses;
    bool dispatched = false;
    bool rebuilt = false;

    for (std::uint32_t attempt = 0; attempt <= config_.maxRetries;
         ++attempt) {
        if (attempt > 0) {
            ++retries_;
            machine.trace().publishLight(trace::EventKind::ServeRetry,
                                         trace::kNoCore, 0, tenant.id,
                                         attempt);
        }

        // A previous rebuild died half-way (e.g. the EPC allocator
        // refused mid-build): the tenant is inner-less until a build
        // succeeds. Keep trying under the same retry budget.
        if (!tenant.inner) {
            rebuilt = true;
            Status st = rebuildTenantNow(tenant);
            if (!st) {
                finalStatus = st;
                continue;
            }
        }

        // Transparent cold start: page the inner back in before
        // entering. Pinned (`busy`) so the pressure manager cannot pick
        // this tenant as an eviction victim mid-reload.
        tenant.busy = true;
        auto resident = registry_->ensureResident(tenant);
        tenant.busy = false;
        if (!resident) {
            finalStatus = resident.status();
            if (poisonedStatus(finalStatus)) {
                rebuilt = true;
                (void)rebuildTenantNow(tenant);
                break;  // seals target the dead instance: no redispatch
            }
            continue;
        }

        std::vector<ByteView> views;
        views.reserve(batch.size());
        for (const Request& req : batch) views.push_back(req.sealed);
        Bytes blob = packBatch(tenant.slot, views);

        trace::TraceEvent begin;
        begin.kind = trace::EventKind::ServeBatchBegin;
        begin.core = core;
        begin.arg0 = tenant.id;
        begin.arg1 = batch.size();
        machine.trace().publishIfActive(begin);

        tenant.busy = true;
        auto respBlob = registry_->dispatch(tenant, blob, core);
        tenant.busy = false;

        machine.trace().publishLight(trace::EventKind::ServeBatchEnd, core,
                                     0, tenant.id, batch.size());

        if (!respBlob) {
            finalStatus = respBlob.status();
            if (poisonedStatus(finalStatus)) {
                rebuilt = true;
                (void)rebuildTenantNow(tenant);
                break;
            }
            continue;
        }
        auto parsed = parseResponses(respBlob.value());
        if (!parsed) {
            finalStatus = parsed.status();
            continue;
        }
        if (parsed.value().size() != batch.size()) {
            finalStatus = Err::BadCallBuffer;
            continue;
        }
        responses = std::move(parsed.value());
        dispatched = true;
        break;
    }

    const std::uint64_t now = machine.clock().cycles();
    if (dispatched) {
        std::lock_guard<std::mutex> c(completionsM_);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            Completion done;
            done.id = batch[i].id;
            done.tenant = batch[i].tenant;
            done.sealedResponse = std::move(responses[i]);
            done.latencyCycles = now - batch[i].enqueuedAt;
            done.ok = !done.sealedResponse.empty();
            // Deliberately NOT rebuilt-flagged: a batch that round-trips
            // after a lazy rebuild was sealed against the fresh instance
            // (the client resealed when the rebuild was first reported),
            // so telling the client to reset again would wipe the very
            // expectations these responses verify against.
            if (done.ok) {
                ++tenant.okServed;  // supervisor liveness heartbeat
            } else {
                // The batch round-tripped but the server refused this
                // request (bad seal, or a sequence already consumed by a
                // partially-processed earlier attempt).
                done.status = Err::SealRejected;
            }
            completions_.push_back(std::move(done));
        }
    } else {
        ++dispatchFailures_;
        failTyped(batch, finalStatus, rebuilt);
    }

    // Breaker bookkeeping observes the batch outcome: any round trip
    // counts as healthy (per-request refusals are an auth decision, not
    // an infrastructure failure).
    if (dispatched) {
        breaker.consecutiveFailures = 0;
        if (breaker.open) {
            breaker.open = false;
            ++breakerCloses_;
            machine.trace().publishLight(trace::EventKind::ServeBreakerClose,
                                         trace::kNoCore, 0, tenant.id, 0);
        }
    } else {
        ++breaker.consecutiveFailures;
        if (!breaker.open &&
            breaker.consecutiveFailures >= config_.breakerThreshold) {
            breaker.open = true;
            breaker.probeAt =
                machine.clock().cycles() + config_.breakerCooldownCycles;
            ++breakerOpens_;
            machine.trace().publishLight(trace::EventKind::ServeBreakerOpen,
                                         trace::kNoCore, 0, tenant.id,
                                         breaker.consecutiveFailures);
        } else if (breaker.open) {
            // Failed half-open probe: stay open, re-arm the cooldown.
            breaker.probeAt =
                machine.clock().cycles() + config_.breakerCooldownCycles;
        }
    }
}

std::size_t
WorkerPool::run(std::size_t threads, std::size_t maxBatches)
{
    if (threads == 0) threads = config_.threads;
    threads = std::clamp<std::size_t>(threads, 1, cores_);

    // Static ownership: worker t serves every tenant whose gateway index
    // is t mod threads. Disjoint gateways mean disjoint staging heaps
    // and TCSes per worker; per-tenant FIFO falls out of one tenant
    // having exactly one worker.
    std::vector<std::vector<TenantHandle*>> owned(threads);
    for (const auto& [id, tenant] : registry_->tenants()) {
        owned[tenant->gatewayIndex % threads].push_back(tenant.get());
    }

    // Worker 0 runs inline on the caller's thread, the rest as OS
    // threads. Set-up scheduled every core onto the process, and moving
    // between threads of one process is no context switch, so a worker
    // just starts dispatching on its core.
    std::atomic<std::size_t> total{0};
    auto work = [&](std::size_t t) {
        total.fetch_add(serveOwned(owned[t], hw::CoreId(t), maxBatches),
                        std::memory_order_relaxed);
    };
    std::vector<std::thread> workers;
    for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(work, t);
    work(0);
    for (std::thread& w : workers) w.join();
    return total.load(std::memory_order_relaxed);
}

std::size_t
WorkerPool::serveOwned(const std::vector<TenantHandle*>& owned,
                       hw::CoreId core, std::size_t maxBatches)
{
    std::size_t batches = 0;
    bool progress = true;
    while (progress) {
        progress = false;
        for (TenantHandle* tenant : owned) {
            if (batches == maxBatches) return batches;
            if (admission_->depth(tenant->id) == 0) continue;
            processTenant(*tenant, core);
            ++batches;
            progress = true;
        }
    }
    return batches;
}

std::vector<Completion>
WorkerPool::drain()
{
    std::lock_guard<std::mutex> g(completionsM_);
    std::vector<Completion> out;
    out.swap(completions_);
    return out;
}

TenantService::TenantService(sdk::Urts& urts, Config config)
    : config_(std::move(config)),
      registry_(urts, config_.registry, config_.switchless),
      admission_(urts.machine(), config_.admission),
      pressure_(urts.kernel(), registry_, config_.pressure),
      pool_(registry_, admission_, pressure_, config_.pool)
{
    registry_.setEpcReserve(
        [this](std::uint64_t pages) { return pressure_.ensureFree(pages); });
    if (config_.attestOnboarding) {
        verifier_ = std::make_unique<attest::TenantVerifier>(
            urts.machine(), kAttestNonceSeed);
    }
}

attest::Verdict
TenantService::attestInner(sdk::LoadedEnclave* inner, TenantId id,
                           std::size_t gatewayIndex)
{
    attest::Verdict verdict;
    if (!verifier_ || !inner) return verdict;  // untrusted by default

    const Bytes nonce = verifier_->nextNonce();
    auto evidence =
        registry_.provisionInner(inner, verifier_->measurement(), nonce);
    if (!evidence) return verdict;
    auto report = attest::decodeNestedReport(evidence.value());
    if (!report) return verdict;

    attest::TenantPolicy policy;
    policy.expectedMrEnclave = inner->mrenclave();
    policy.expectedMrSigner = core::defaultAuthorKey().pub.signerMeasurement();
    if (sdk::LoadedEnclave* outer = registry_.gatewayOuter(gatewayIndex)) {
        policy.expectedOuter = outer->mrenclave();
    }
    policy.expectedChainDepth =
        config_.attestDepthOverride
            ? *config_.attestDepthOverride
            : std::uint32_t(registry_.topology() == Topology::Cvm ? 2 : 1);

    verdict = verifier_->verify(id, report.value(), policy, nonce);
    TenantHandle* tenant = registry_.find(id);
    if (tenant && !tenant->verified && verdict.trusted()) {
        tenant->sessionKey = verdict.sessionKey;
    }
    return verdict;
}

Bytes
TenantService::sessionKeyFor(TenantId id) const
{
    const TenantHandle* tenant = registry_.find(id);
    return tenant ? tenant->sessionKey : Bytes{};
}

Status
TenantService::removeTenant(TenantId id)
{
    if (!registry_.find(id)) return Err::NotFound;
    registry_.disarm(id);
    (void)admission_.purge(id);
    return registry_.retireTenant(id);
}

Result<TenantHandle*>
TenantService::addTenant(TenantId id, Workload workload,
                         std::shared_ptr<const sdk::SignedEnclave> image)
{
    auto tenant = registry_.ensure(id, workload, std::move(image));
    // A failed build, or a tenant already onboarded.
    if (!tenant || tenant.value()->verified) return tenant;

    if (config_.attestOnboarding &&
        !attestInner(tenant.value()->inner, id, tenant.value()->gatewayIndex)
             .trusted()) {
        // Admission on faith is exactly what the trust path forbids:
        // tear the instance straight back down.
        (void)removeTenant(id);
        return Err::AttestationFailed;
    }
    tenant.value()->verified = true;
    return tenant;
}

Status
TenantService::submit(TenantId tenant, Bytes sealed)
{
    if (!registry_.find(tenant)) return Err::NotFound;
    return admission_.submit(tenant, std::move(sealed));
}

TenantService::Placement
TenantService::placement(TenantId id)
{
    Placement p;
    if (TenantHandle* tenant = registry_.find(id)) {
        p.epoch = tenant->epoch.load(std::memory_order_relaxed);
        p.incarnation = tenant->incarnation.load(std::memory_order_relaxed);
    }
    return p;
}

Status
TenantService::submitStamped(TenantId tenant, Bytes stamped)
{
    TenantHandle* handle = registry_.find(tenant);
    if (!handle) return Err::NotFound;
    std::uint64_t epoch = 0;
    Bytes sealed;
    if (!splitEpoch(stamped, &epoch, &sealed)) return Err::BadCallBuffer;
#ifndef NESGX_BUG_EPOCH_STALE
    // The fence: a stamp resolved before the tenant's last rebuild or
    // relocation is refused typed, never served — stale clients would
    // otherwise burn sequence numbers against a placement they cannot
    // verify responses from.
    if (epoch != handle->epoch.load(std::memory_order_relaxed)) {
        ++handle->wrongEpochs;
        registry_.urts().machine().trace().publishLight(
            trace::EventKind::ServeWrongEpoch, trace::kNoCore, 0, tenant,
            epoch);
        return Err::WrongEpoch;
    }
#endif
    return admission_.submit(tenant, std::move(sealed));
}

}  // namespace nesgx::serve
