#include "migrate/engine.h"

#include <iterator>

#include "attest/verifier.h"
#include "fault/injector.h"
#include "trace/bus.h"

namespace nesgx::migrate {

Status
MigrationEngine::abort(Status why)
{
    ++stats_.aborted;
    return why;
}

Result<Bytes>
MigrationEngine::exportSource(serve::TenantService& svc,
                              serve::TenantHandle& tenant)
{
    serve::TenantRegistry& registry = svc.registry();
    if (!tenant.inner) return Err::Unavailable;  // quarantined

    // The source's parked poller holds inner TCSes; unpark before the
    // instance can be torn down. The destination re-arms lazily on its
    // first dispatch (the endpoint's chain pointers change, which the
    // engine detects).
    registry.disarm(tenant.id);

    auto resident = registry.ensureResident(tenant);
    if (!resident) return resident.status();

    if (registry.urts().machine().faultFires(
            fault::FaultSite::MigrateExportFail)) {
        return Err::Unavailable;
    }
    // Both move kinds carry the session between instances of one
    // identity, so the transport key binds to the source's own
    // measurement (a cross-host move re-wraps it between roots of trust
    // afterwards).
    auto sealed =
        registry.exportInner(tenant.inner, tenant.inner->mrenclave());
    if (!sealed) return sealed;

    // EWB-drain the source: the move leaves nothing resident behind.
    stats_.pagesDrained += registry.drainTenantLocked(tenant);
    return sealed;
}

Status
MigrationEngine::migrateToGateway(serve::TenantService& svc,
                                  serve::TenantId id)
{
    serve::TenantHandle* tenant = svc.registry().find(id);
    if (!tenant) return Err::NotFound;
    auto target = svc.registry().pickGatewayExcept(tenant->gatewayIndex);
    if (!target) {
        ++stats_.attempts;
        return abort(target.status());
    }
    return migrateToGateway(svc, id, target.value());
}

Status
MigrationEngine::migrateToGateway(serve::TenantService& svc,
                                  serve::TenantId id,
                                  std::size_t targetGateway)
{
    serve::TenantRegistry& registry = svc.registry();
    serve::TenantHandle* tenant = registry.find(id);
    if (!tenant) return Err::NotFound;
    sgx::Machine& machine = registry.urts().machine();

    ++stats_.attempts;
    const std::uint64_t begin = machine.clock().cycles();

    // Own the tenant for the whole move, exactly like a worker owns it
    // for a batch: the pressure manager's try_lock skips us, and no
    // batch can enter the source mid-export.
    std::lock_guard<std::mutex> own(tenant->m);
    // Same-host move: source and destination instances share identity
    // and root of trust, so no re-wrap is needed.
    auto sealed = exportSource(svc, *tenant);
    if (!sealed) return abort(sealed.status());

    auto ticket = registry.stageRelocation(*tenant, targetGateway);
    if (!ticket) return abort(ticket.status());
    // From here on a failure destroys the staged instance; the source,
    // untouched until commit, keeps serving.
    auto rollBack = [&](Status why) {
        registry.abandonRelocation(ticket.value());
        ++stats_.rolledBack;
        return abort(why);
    };

    // Re-attest through the new ancestor chain before trusting the
    // staged instance with the session. (Also re-derives its session
    // key; outside attested deployments the fresh instance starts on
    // the out-of-band key and the import below restores the real one.)
    if (svc.attestationEnabled() &&
        !svc.attestInner(ticket.value().inner, id,
                         ticket.value().gatewayIndex)
             .trusted()) {
        return rollBack(Err::AttestationFailed);
    }

    if (machine.faultFires(fault::FaultSite::MigrateImportFail)) {
        return rollBack(Err::Unavailable);
    }
    Status imported = registry.importInner(
        ticket.value().inner, tenant->inner->mrenclave(), sealed.value());
    if (!imported) return rollBack(imported);

    Status committed = registry.commitRelocation(*tenant, ticket.value());
    if (!committed) return rollBack(committed);

    ++stats_.gatewayMoves;
    stats_.latency.add(machine.clock().cycles() - begin);
    return Status::ok();
}

Status
MigrationEngine::migrateToHost(serve::TenantService& src,
                               serve::TenantService& dst, serve::TenantId id)
{
    serve::TenantRegistry& srcReg = src.registry();
    serve::TenantHandle* srcTenant = srcReg.find(id);
    if (!srcTenant) return Err::NotFound;
    if (dst.registry().find(id)) return Err::OsError;  // already there

    sgx::Machine& srcMachine = srcReg.urts().machine();
    sgx::Machine& dstMachine = dst.registry().urts().machine();

    ++stats_.attempts;
    // The two sides run in sequence, each on its own machine's clock: a
    // move costs what both clocks advance.
    const std::uint64_t srcBegin = srcMachine.clock().cycles();
    const std::uint64_t dstBegin = dstMachine.clock().cycles();

    // Destination first: a fully onboarded (attested, under dst's trust
    // path) fresh instance of the source's image, which travels with the
    // move: code is public, only state is sealed, so nothing is signed.
    // Until the import commits, the source stays authoritative and any
    // failure simply removes this instance.
    auto dstTenant =
        dst.addTenant(id, srcTenant->workload, srcTenant->image);
    if (!dstTenant) return abort(dstTenant.status());
    // A failure after the source exported its session also counts as
    // a rollback.
    auto rollBack = [&](Status why, bool exported) {
        (void)dst.removeTenant(id);
        if (exported) ++stats_.rolledBack;
        return abort(why);
    };

    sgx::Measurement mr{};
    Result<Bytes> rewrapped = Err::Unavailable;
    {
        std::lock_guard<std::mutex> own(srcTenant->m);
        auto sealed = exportSource(src, *srcTenant);
        if (!sealed) return rollBack(sealed.status(), false);
        mr = srcTenant->inner->mrenclave();
        const sgx::Measurement signer = srcTenant->inner->mrsigner();

        // Re-wrap between root-of-trust domains: the engine stands in
        // for the mutually-attested migration service both machines
        // trust (each side's transport key is the provisioning-authority
        // view of the *other* machine's identity seal derivation — the
        // enclaves themselves never export their sealing keys).
        Bytes srcKey = attest::migrationTransportKey(
            srcMachine.identitySealingKey(mr, signer), mr);
        Bytes dstKey = attest::migrationTransportKey(
            dstMachine.identitySealingKey(mr, signer), mr);
        auto opened = serve::openMessage(crypto::AesGcm(srcKey), id,
                                         serve::kDirMigrate, sealed.value());
        if (!opened) return rollBack(opened.status(), true);
        rewrapped = serve::sealMessage(crypto::AesGcm(dstKey), id,
                                       serve::kDirMigrate,
                                       opened.value().seq,
                                       opened.value().plain);
    }

    if (dstMachine.faultFires(fault::FaultSite::MigrateImportFail)) {
        return rollBack(Err::Unavailable, true);
    }
    Status imported = dst.registry().importInner(
        dstTenant.value()->inner, mr, rewrapped.value());
    if (!imported) return rollBack(imported, true);
    // The inner now serves with the source's session key, which this
    // host's seal identity does not derive: make it the key the
    // destination hands clients, sealed there for its rebuilds.
    if (!srcTenant->sessionKey.empty()) {
        Status adopted = dst.registry().adoptSessionKey(
            *dstTenant.value(), srcTenant->sessionKey);
        if (!adopted) return rollBack(adopted, true);
    }

    // The move is one epoch step: requests still stamped with the
    // source placement get a WrongEpoch redirect and re-resolve. The
    // incarnation carries over unchanged — session state survived, so
    // clients must NOT reset their seal/replay bookkeeping.
    dstTenant.value()->epoch.store(
        srcTenant->epoch.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    dstTenant.value()->incarnation.store(
        srcTenant->incarnation.load(std::memory_order_relaxed),
        std::memory_order_relaxed);

    // Committed: carry the source's queued requests across (same key,
    // same still-unconsumed sequence numbers), then retire the source.
    for (serve::Request& r : src.admission().purge(id)) {
        if (dst.submit(id, std::move(r.sealed))) ++stats_.requeued;
    }
    Status retired = src.removeTenant(id);
    if (!retired) return abort(retired);

    ++stats_.hostMoves;
    stats_.latency.add((srcMachine.clock().cycles() - srcBegin) +
                       (dstMachine.clock().cycles() - dstBegin));
    dstMachine.trace().publishLight(trace::EventKind::ServeTenantMigrate,
                                    trace::kNoCore, 0, id, 1);
    return Status::ok();
}

std::size_t
Fleet::addHost(serve::TenantService& svc)
{
    hosts_.push_back(&svc);
    return hosts_.size() - 1;
}

serve::TenantService*
Fleet::host(std::size_t index)
{
    return index < hosts_.size() ? hosts_[index] : nullptr;
}

std::size_t
Fleet::hostIndexOf(serve::TenantId id) const
{
    auto it = route_.find(id);
    return it == route_.end() ? 0 : it->second;
}

serve::TenantService*
Fleet::hostOf(serve::TenantId id)
{
    return host(hostIndexOf(id));
}

Result<serve::TenantHandle*>
Fleet::addTenant(serve::TenantId id, serve::Workload workload,
                 std::size_t hostIndex)
{
    serve::TenantService* svc = host(hostIndex);
    if (!svc) return Err::NotFound;
    auto tenant = svc->addTenant(id, workload);
    if (tenant) route_[id] = hostIndex;
    return tenant;
}

Status
Fleet::submit(serve::TenantId id, Bytes sealed)
{
    serve::TenantService* svc = hostOf(id);
    if (!svc) return Err::NotFound;
    return svc->submit(id, std::move(sealed));
}

Status
Fleet::submitStamped(serve::TenantId id, Bytes stamped)
{
    serve::TenantService* svc = hostOf(id);
    if (!svc) return Err::NotFound;
    return svc->submitStamped(id, std::move(stamped));
}

serve::TenantService::Placement
Fleet::placement(serve::TenantId id)
{
    serve::TenantService* svc = hostOf(id);
    return svc ? svc->placement(id) : serve::TenantService::Placement{};
}

std::size_t
Fleet::pumpAll()
{
    std::size_t total = 0;
    for (serve::TenantService* svc : hosts_) total += svc->pump();
    return total;
}

std::vector<serve::Completion>
Fleet::drainAll()
{
    std::vector<serve::Completion> out;
    for (serve::TenantService* svc : hosts_) {
        auto got = svc->drain();
        out.insert(out.end(), std::make_move_iterator(got.begin()),
                   std::make_move_iterator(got.end()));
    }
    return out;
}

Status
Fleet::migrateAcross(MigrationEngine& engine, serve::TenantId id,
                     std::size_t dstHost)
{
    serve::TenantService* src = hostOf(id);
    serve::TenantService* dst = host(dstHost);
    if (!src || !dst) return Err::NotFound;
    if (src == dst) return Err::OsError;
    Status st = engine.migrateToHost(*src, *dst, id);
    if (st) route_[id] = dstHost;
    return st;
}

}  // namespace nesgx::migrate
