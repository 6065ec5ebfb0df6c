#include "serve/registry.h"

#include <algorithm>

#include "attest/verifier.h"
#include "crypto/sha256.h"
#include "db/executor.h"
#include "fault/injector.h"
#include "support/wire.h"
#include "trace/bus.h"

namespace nesgx::serve {

namespace {

/** Mutual trust anchor: anything signed by the service author key may
 *  associate, in either role. This is what makes lazy tenant creation
 *  possible — the gateway's SIGSTRUCT admits future inners by signer,
 *  not by a measurement list frozen at build time. */
sgx::PeerExpectation
authorExpectation()
{
    sgx::PeerExpectation e;
    e.mrsigner = core::defaultAuthorKey().pub.signerMeasurement();
    return e;
}

constexpr std::array<std::uint8_t, attest::kNonceSize> kNoNonce{};

/** tenant_provision's argument (see tenantFunctions). */
Bytes
provisionArg(std::uint8_t mode, const sgx::Measurement& verifierMr = {},
             ByteView nonce = kNoNonce, ByteView sealedKey = {})
{
    return WireWriter(1 + 32 + nonce.size() + sealedKey.size())
        .u8(mode).bytes(verifierMr).bytes(nonce).bytes(sealedKey).take();
}

/** State logically private to one tenant's inner enclave. */
struct ServerState {
    TenantId tenant;
    Workload workload;
    crypto::AesGcm gcm;
    /** EGETKEY-rooted session key once provisioned; empty while on the
     *  legacy out-of-band tenantKey(). Carried by migration snapshots. */
    Bytes sessionKey;
    std::uint64_t lastSeq = 0;
    bool seenAny = false;
    db::Database db;
    /** Statement journal: deterministic replay rebuilds `db` on import
     *  (the database itself has no serialization path). */
    std::vector<std::string> sqlJournal;

    ServerState(TenantId t, Workload w)
        : tenant(t), workload(w), gcm(tenantKey(t))
    {
    }

    Result<Bytes> execute(sdk::TrustedEnv& env, ByteView plain)
    {
        switch (workload) {
          case Workload::Echo:
            env.chargeCycles(plain.size());
            return Bytes(plain.begin(), plain.end());
          case Workload::Sql: {
            std::string stmt(plain.begin(), plain.end());
            std::uint64_t before = db.workUnits();
            db::QueryResult r = db.execute(stmt);
            sqlJournal.push_back(std::move(stmt));
            env.chargeCycles((db.workUnits() - before) * 20 + 200);
            return bytesOf(sqlResultText(r.ok, r.error, r.rowsAffected,
                                         r.rows.size()));
          }
          case Workload::Svm:
            env.chargeCycles(64 * plain.size() + 128);
            return WireWriter(8)
                .u64(std::uint64_t(svmScore(tenant, plain))).take();
        }
        return Err::NoSuchCall;
    }

    /** One sealed request in, one sealed response out; empty bytes mark
     *  a refused request (bad seal or sequence regression). */
    Bytes serveOne(sdk::TrustedEnv& env, ByteView sealed)
    {
        env.chargeGcm(sealed.size());
        auto opened = openMessage(gcm, tenant, kDirRequest, sealed);
        if (!opened) return Bytes{};
        std::uint64_t seq = opened.value().seq;
        // Strictly monotonic: gaps are expected (the admission layer
        // sheds), replays and reordering across batches are not.
        if (seenAny && seq <= lastSeq) return Bytes{};
        seenAny = true;
        lastSeq = seq;
        auto resp = execute(env, opened.value().plain);
        if (!resp) return Bytes{};
        env.chargeGcm(resp.value().size());
        return sealMessage(gcm, tenant, kDirResponse, seq, resp.value());
    }
};

}  // namespace

TenantRegistry::TenantRegistry(sdk::Urts& urts, Config config,
                               switchless::Config rings)
    : urts_(&urts),
      config_(config),
      coreM_(std::make_unique<std::mutex[]>(urts.machine().coreCount()))
{
    if (rings.enabled) {
        engine_ = std::make_unique<switchless::SwitchlessEngine>(urts, rings);
    }
}

Status
TenantRegistry::reserveEpc(std::uint64_t pages)
{
    if (!epcReserve_) return Status::ok();
    return epcReserve_(pages);
}

TenantHandle*
TenantRegistry::find(TenantId id)
{
    auto it = tenants_.find(id);
    return it == tenants_.end() ? nullptr : it->second.get();
}

const TenantHandle*
TenantRegistry::find(TenantId id) const
{
    auto it = tenants_.find(id);
    return it == tenants_.end() ? nullptr : it->second.get();
}

Status
TenantRegistry::ensureCvmRoot()
{
    if (config_.topology != Topology::Cvm || cvmRoot_ != nullptr) {
        return Status::ok();
    }
    sdk::EnclaveSpec spec;
    spec.name = "serve-cvm";
    spec.codePages = config_.cvmCodePages;
    spec.dataPages = 4;
    spec.heapPages = config_.cvmHeapPages;
    spec.stackPages = 4;
    spec.tcsCount = config_.cvmTcs;
    // The root hosts gateways exactly as gateways host tenants: by
    // author signer, so the fleet can grow after EINIT.
    spec.allowedInners.push_back(authorExpectation());

    Status st = reserveEpc(spec.totalPages() + 1);
    if (!st) return st;
    // Built and loaded once: nothing rebuilds the root, so its enclave
    // is the only holder its image needs.
    auto loaded = urts_->load(
        sdk::buildImage(spec, core::defaultAuthorKey()), spec.interface);
    if (!loaded) return loaded.status();
    cvmRoot_ = loaded.value();
    return Status::ok();
}

std::shared_ptr<sdk::EnclaveInterface>
TenantRegistry::gatewayFunctions(std::shared_ptr<GatewayState> state) const
{
    auto dispatch = [state](sdk::TrustedEnv& env,
                            ByteView arg) -> Result<Bytes> {
        auto batch = parseBatch(arg);
        if (!batch) return batch.status();
        if (batch.value().slot >= state->slots.size()) {
            return Err::NotFound;
        }
        sdk::LoadedEnclave* inner = state->slots[batch.value().slot];
        if (!inner) return Err::NotFound;

        // Stage the whole sealed batch into the gateway heap once;
        // responses come back through the same region, so the cap
        // keeps a margin over the request size.
        std::uint64_t need = arg.size() + 4096;
        if (state->stagingCap < need) {
            if (state->stagingVa != 0) env.free(state->stagingVa);
            state->stagingVa = env.alloc(need);
            if (state->stagingVa == 0) return Err::OutOfMemory;
            state->stagingCap = need;
        }
        Status st = env.writeBytes(state->stagingVa, arg);
        if (!st) return st;

        // The single NEENTER of the whole batch: [va, len] in, length out.
        auto respLen = env.nEcall(
            *inner, "serve_batch",
            WireWriter(16).u64(state->stagingVa).u64(arg.size()).take());
        if (!respLen) return respLen.status();
        WireReader reply(respLen.value());
        const std::uint64_t len = reply.u64();
        if (!reply.done() || len > state->stagingCap) return Err::BadCallBuffer;
        return env.readBytes(state->stagingVa, len);
    };
    auto fns = std::make_shared<sdk::EnclaveInterface>();
    fns->addEcall("gw_dispatch", dispatch);
    if (config_.topology == Topology::Cvm) {
        // Under the CVM root the gateway is entered by NEENTER (the last
        // hop of the dispatch chain resolves n_ecalls only), so the same
        // body is registered under both call tables.
        fns->addNEcall("gw_dispatch", dispatch);
    }
    return fns;
}

Status
TenantRegistry::makeGateway(std::size_t index)
{
    Status root = ensureCvmRoot();
    if (!root) return root;

    Gateway& gw = gateways_[index];
    auto state = std::make_shared<GatewayState>(config_.tenantsPerOuter);
    Status st = reserveEpc(gw.image->spec.totalPages() + 1);
    if (!st) return st;
    auto loaded = urts_->load(gw.image, gatewayFunctions(state));
    if (!loaded) return loaded.status();
    if (config_.topology == Topology::Cvm) {
        st = urts_->associate(loaded.value(), cvmRoot_);
        if (!st) {
            (void)urts_->unload(loaded.value());
            return st;
        }
    }

    gw.outer = loaded.value();
    gw.state = std::move(state);
    return Status::ok();
}

Result<std::size_t>
TenantRegistry::addGateway()
{
    const std::size_t index = gateways_.size();
    Gateway& gw = gateways_.emplace_back();
    gw.owned.assign(config_.tenantsPerOuter, false);

    // The record's image, signed once. The functions here only declare
    // the surface it measures; every makeGateway binds its own.
    sdk::EnclaveSpec spec;
    spec.name = "serve-gw-" + std::to_string(index);
    spec.codePages = config_.outerCodePages;
    spec.dataPages = 4;
    spec.heapPages = config_.outerHeapPages;
    spec.stackPages = 4;
    // Under rings a gateway seats its poller, one per tenant poller and
    // two classic entries; a tenant its poller and one classic entry.
    spec.tcsCount = engine_ ? config_.tenantsPerOuter + 3 : 2;
    spec.allowedInners.push_back(authorExpectation());
    if (config_.topology == Topology::Cvm) {
        // The gateway itself nests under the CVM root.
        spec.expectedOuter = authorExpectation();
    }
    spec.interface = gatewayFunctions(
        std::make_shared<GatewayState>(config_.tenantsPerOuter));
    gw.image = sdk::buildImage(spec, core::defaultAuthorKey());

    Status st = makeGateway(index);
    if (!st) {
        gateways_.pop_back();
        return st;
    }
    return index;
}

std::uint32_t
TenantRegistry::claimSlot(Gateway& gateway, sdk::LoadedEnclave* inner)
{
    // First unowned slot: retirements and relocations leave holes, so
    // the fill index is not simply the tenant count.
    const auto slot = std::uint32_t(
        std::find(gateway.owned.begin(), gateway.owned.end(), false) -
        gateway.owned.begin());
    gateway.owned[slot] = true;
    gateway.state->slots[slot] = inner;
    return slot;
}

void
TenantRegistry::releaseSlot(Gateway& gateway, std::uint32_t slot)
{
    gateway.owned[slot] = false;
    gateway.state->slots[slot] = nullptr;
}

std::shared_ptr<sdk::EnclaveInterface>
TenantRegistry::tenantFunctions(TenantId id, Workload workload)
{
    auto fns = std::make_shared<sdk::EnclaveInterface>();
    auto server = std::make_shared<ServerState>(id, workload);
    fns->addNEcall(
        "serve_batch",
        [server](sdk::TrustedEnv& env, ByteView desc) -> Result<Bytes> {
            WireReader r(desc);
            const hw::Vaddr va = r.u64();
            const std::uint64_t len = r.u64();
            if (!r.done()) return Err::BadCallBuffer;
            // By-reference read of the gateway's staging region: the
            // EPCM owner is the outer, reached via the closure walk.
            auto blob = env.readBytes(va, len);
            if (!blob) return blob.status();
            auto batch = parseBatch(blob.value());
            if (!batch) return batch.status();

            std::vector<Bytes> responses;
            responses.reserve(batch.value().msgs.size());
            for (ByteView msg : batch.value().msgs) {
                responses.push_back(server->serveOne(env, msg));
            }
            Bytes respBlob = packResponses(responses);
            Status st = env.writeBytes(va, respBlob);
            if (!st) return st;
            return WireWriter(8).u64(respBlob.size()).take();
        });

    // Trust-path provisioning: the inner derives its session key from
    // its EGETKEY identity sealing key and (mode 1) returns NEREPORT
    // evidence binding the verifier's nonce and that key. Mode 0 only
    // installs the key, the rebuild path's way to restore a verified
    // tenant's key without a fresh challenge: re-derived, or unsealed
    // from a blob mode 2 returned. Mode 2 seals the key the inner serves
    // with under its identity, for a key it cannot re-derive: one a
    // cross-host import brought from another machine.
    // arg = [u8 mode][32B verifier mrenclave][32B nonce][mode 0: blob]
    fns->addNEcall(
        "tenant_provision",
        [server](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
            WireReader r(arg);
            const std::uint8_t mode = r.u8();
            sgx::TargetInfo target;
            r.fill(target.mrenclave);
            const ByteView nonce = r.bytes(attest::kNonceSize);
            const ByteView blob = r.rest();
            if (!r.done() || mode > 2 || (mode != 0 && !blob.empty())) {
                return Err::BadCallBuffer;
            }
#ifndef NESGX_BUG_SESSION_RESET_LIVE
            // A session is installed once per instance: one that has
            // accepted a request (or imported a session that had) keeps
            // its replay window. Rebuilds and moves provision fresh ones.
            if (mode != 2 && server->seenAny) return Err::GeneralProtection;
#endif
            auto seal = env.getSealKeyIdentity();
            if (!seal) return seal.status();
            if (mode == 2) {
                // The IV comes from the key it seals, so sealing another
                // key under this identity never reuses an IV.
                const ByteView plain(server->sessionKey);
                const std::uint64_t iv =
                    loadLe64(crypto::Sha256::hash(plain).data());
                env.chargeGcm(plain.size());
                return sealMessage(
                    crypto::AesGcm(attest::sessionSealKey(seal.value())),
                    server->tenant, kDirSessionKey, iv, plain);
            }
            Bytes key;
            if (!blob.empty()) {
                env.chargeGcm(blob.size());
                auto opened = openMessage(
                    crypto::AesGcm(attest::sessionSealKey(seal.value())),
                    server->tenant, kDirSessionKey, blob);
                if (!opened) return opened.status();
                key = std::move(opened.value().plain);
            } else {
                key = attest::sessionKeyFromSeal(seal.value(), server->tenant);
            }
            server->sessionKey = key;
            server->gcm = crypto::AesGcm(key);
            if (mode == 0) return Bytes{};

            const crypto::Sha256Digest nonceHash = crypto::Sha256::hash(nonce);
            const crypto::Sha256Digest keyHash =
                crypto::Sha256::hash(ByteView(key.data(), key.size()));
            sgx::ReportData data{};
            std::copy(nonceHash.begin(), nonceHash.end(), data.begin());
            std::copy(keyHash.begin(), keyHash.end(), data.begin() + 32);
            auto report = env.getNestedReport(target, data);
            if (!report) return report.status();
            return attest::encodeNestedReport(report.value());
        });

    // Migration export: seal the whole session (key, replay high-water
    // mark, statement journal) under a transport key only an enclave of
    // the same identity — on a machine whose root of trust vouches for
    // it — can re-derive. arg = [32B destination mrenclave]
    fns->addNEcall(
        "tenant_export",
        [server](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
            WireReader r(arg);
            sgx::Measurement dstMr{};
            r.fill(dstMr);
            if (!r.done()) return Err::BadCallBuffer;
            auto seal = env.getSealKeyIdentity();
            if (!seal) return seal.status();
            Bytes tkey = attest::migrationTransportKey(seal.value(), dstMr);
            TenantSnapshot snap;
            snap.sessionKey = server->sessionKey;
            snap.lastSeq = server->lastSeq;
            snap.seenAny = server->seenAny;
            snap.sqlJournal = server->sqlJournal;
            Bytes blob = packSnapshot(snap);
            env.chargeGcm(blob.size());
            return sealMessage(crypto::AesGcm(tkey), server->tenant,
                               kDirMigrate, snap.lastSeq, blob);
        });

    // Migration import: open a snapshot sealed by the source instance
    // and resume the session. arg = [32B source mrenclave][sealed blob]
    fns->addNEcall(
        "tenant_import",
        [server](sdk::TrustedEnv& env, ByteView arg) -> Result<Bytes> {
            WireReader r(arg);
            sgx::Measurement srcMr{};
            r.fill(srcMr);
            const ByteView sealed = r.rest();
            if (!r.done()) return Err::BadCallBuffer;
#ifndef NESGX_BUG_SESSION_RESET_LIVE
            if (server->seenAny) return Err::GeneralProtection;  // as above
#endif
            auto seal = env.getSealKeyIdentity();
            if (!seal) return seal.status();
            Bytes tkey = attest::migrationTransportKey(seal.value(), srcMr);
            env.chargeGcm(sealed.size());
            auto opened = openMessage(crypto::AesGcm(tkey), server->tenant,
                                      kDirMigrate, sealed);
            if (!opened) return opened.status();
            auto snap = parseSnapshot(opened.value().plain);
            if (!snap) return snap.status();
            if (!snap.value().sessionKey.empty()) {
                server->sessionKey = snap.value().sessionKey;
                server->gcm = crypto::AesGcm(server->sessionKey);
            }
            server->sqlJournal = std::move(snap.value().sqlJournal);
            server->db = db::Database{};
            for (const auto& stmt : server->sqlJournal) {
                (void)server->db.execute(stmt);
            }
            env.chargeCycles(server->sqlJournal.size() * 20 + 100);
#ifndef NESGX_BUG_MIGRATE_REPLAY
            // Sequence continuity: the replay high-water mark survives
            // the move, so a request captured before the migration can
            // never be replayed against the new instance.
            server->lastSeq = snap.value().lastSeq;
            server->seenAny = snap.value().seenAny;
#endif
            return Bytes{};
        });
    return fns;
}

Result<sdk::LoadedEnclave*>
TenantRegistry::loadInner(
    std::shared_ptr<const sdk::SignedEnclave> image,
    std::shared_ptr<const sdk::EnclaveInterface> functions, Gateway& gateway)
{
    Status st = reserveEpc(image->spec.totalPages() + 1);
    if (!st) return st;
    auto loaded = urts_->load(std::move(image), std::move(functions));
    if (!loaded) return loaded.status();
    st = urts_->associate(loaded.value(), gateway.outer);
    if (!st) return st;
    return loaded.value();
}

Result<TenantHandle*>
TenantRegistry::ensure(TenantId id, Workload workload,
                       std::shared_ptr<const sdk::SignedEnclave> image)
{
    if (TenantHandle* existing = find(id)) return existing;

    auto gwIndex = !gateways_.empty() && gateways_.back().hasRoom()
                       ? Result<std::size_t>(gateways_.size() - 1)
                       : addGateway();
    if (!gwIndex) return gwIndex.status();
    Gateway& gateway = gateways_[gwIndex.value()];

    auto functions = tenantFunctions(id, workload);
    if (!image) {
        // A new record: the tenant's image is signed here, once.
        sdk::EnclaveSpec spec;
        spec.name = "tenant-" + std::to_string(id);
        spec.codePages = config_.innerCodePages;
        spec.dataPages = 2;
        spec.heapPages = config_.innerHeapPages;
        spec.stackPages = 2;
        spec.tcsCount = engine_ ? 2 : 1;  // see addGateway
        spec.expectedOuter = authorExpectation();
        spec.interface = functions;
        image = sdk::buildImage(spec, core::defaultAuthorKey());
    }
    auto inner = loadInner(image, std::move(functions), gateway);
    if (!inner) return inner.status();

    auto tenant = std::make_unique<TenantHandle>();
    tenant->image = std::move(image);
    tenant->id = id;
    tenant->workload = workload;
    tenant->setInner(inner.value());
    tenant->gatewayIndex = gwIndex.value();
    tenant->slot = claimSlot(gateway, inner.value());

    TenantHandle* out = tenant.get();
    tenants_[id] = std::move(tenant);
    return out;
}

std::optional<switchless::Endpoint>
TenantRegistry::ring(const TenantHandle& tenant,
                     const std::vector<sdk::LoadedEnclave*>& chain)
{
    if (!engine_) return std::nullopt;
    switchless::Endpoint ep{chain, "serve_batch", tenant.slot};
    if (!engine_->ready(tenant.id, ep)) return std::nullopt;
    return ep;
}

Result<Bytes>
TenantRegistry::dispatch(TenantHandle& tenant, ByteView blob, hw::CoreId core)
{
#ifdef NESGX_BUG_RING_SKIPS_GATE
    // An armed ring serves ahead of the gate: crashed gateways, a
    // degraded host and unverified tenants all get served.
    if (auto ep = ring(tenant, dispatchChain(tenant))) {
        return engine_->call(tenant.id, *ep, blob, core);
    }
#endif
    // Failure-domain fault sites: a gateway-crash hit marks this batch's
    // gateway dead (until its subtree is rebuilt), a host-degrade hit
    // marks the whole host's data plane refusing. Both are front-checked
    // below, so with no injector armed this is two predictable branches.
    sgx::Machine& machine = urts_->machine();
    if (machine.faultFires(fault::FaultSite::GatewayCrash, core)) {
        crashGateway(tenant.gatewayIndex);
    }
    if (machine.faultFires(fault::FaultSite::HostDegrade, core)) {
        setDegraded(true);
    }
    if (degraded()) return Err::Unavailable;
    if (gatewayCrashed(tenant.gatewayIndex)) return Err::Unavailable;
    if (!tenant.inner) return Err::Unavailable;
    if (!tenant.verified) return Err::AttestationFailed;
    std::vector<sdk::LoadedEnclave*> chain = dispatchChain(tenant);
    if (chain.empty()) return Err::Unavailable;  // mid subtree rebuild
    std::lock_guard<std::mutex> onCore(coreM_[core]);
    if (auto ep = ring(tenant, chain)) {
        return engine_->call(tenant.id, *ep, blob, core);
    }
    // No ring (off, or no spare core, TCS or heap): enter the chain down
    // to the gateway (EENTER the root, NEENTER each deeper link,
    // validating every adjacency on the way down); the gateway's
    // dispatch body NEENTERs the tenant itself.
    chain.pop_back();
    return urts_->ecallChain(chain, "gw_dispatch", blob, core);
}

std::size_t
TenantRegistry::armRings()
{
    std::size_t armed = 0;
    for (const auto& [id, tenant] : tenants_) {
        if (ring(*tenant, dispatchChain(*tenant))) ++armed;
    }
    return armed;
}

void
TenantRegistry::disarm(TenantId id)
{
    if (engine_) engine_->disarm(id);
}

std::vector<sdk::LoadedEnclave*>
TenantRegistry::dispatchChain(const TenantHandle& tenant)
{
    sdk::LoadedEnclave* outer = gateways_[tenant.gatewayIndex].outer;
    if (outer == nullptr || tenant.inner == nullptr) return {};
    if (config_.topology != Topology::Cvm) return {outer, tenant.inner};
    if (cvmRoot_ == nullptr) return {};
    return {cvmRoot_, outer, tenant.inner};
}

Status
TenantRegistry::reloadEnclave(sdk::LoadedEnclave* enclave,
                              std::uint64_t* pages)
{
    if (!enclave) return Status::ok();
    os::Kernel& kernel = urts_->kernel();
    const os::EnclaveRecord* rec = kernel.enclaveRecord(enclave->secsPage());
    if (!rec || rec->evicted.empty()) return Status::ok();

    // Make room for the whole reload up front (evicting colder tenants
    // if needed); a refusal is not fatal — the allocator may still cover
    // part of it, and the worker retries the remainder.
    (void)reserveEpc(rec->evicted.size());

    std::vector<hw::Vaddr> vas;
    vas.reserve(rec->evicted.size());
    for (const auto& [va, blob] : rec->evicted) vas.push_back(va);
    for (hw::Vaddr va : vas) {
        Status st = kernel.reloadPage(enclave->secsPage(), va);
        if (!st) return st;
    }
    *pages += vas.size();
    return Status::ok();
}

Result<std::uint64_t>
TenantRegistry::ensureResident(TenantHandle& tenant)
{
    if (!tenant.inner) return Err::Unavailable;
    os::Kernel& kernel = urts_->kernel();

    std::uint64_t reloaded = 0;
    // The dispatch path enters the whole chain, so the tenant's
    // ancestors must be resident too. Only subtree eviction ever pages
    // a gateway (or the root) out, so flat runs never take these.
    Status st = reloadEnclave(cvmRoot_, &reloaded);
    if (!st) return st;
    st = reloadEnclave(gateways_[tenant.gatewayIndex].outer, &reloaded);
    if (!st) return st;
    st = reloadEnclave(tenant.inner, &reloaded);
    if (!st) return st;
    if (reloaded == 0) return std::uint64_t(0);

    ++tenant.reloads;
    kernel.machine().trace().publishLight(
        trace::EventKind::ServeTenantReload, trace::kNoCore, 0, tenant.id,
        reloaded);
    return reloaded;
}

std::uint64_t
TenantRegistry::evictTenant(TenantHandle& tenant)
{
    // Never page out a tenant another worker thread is mid-batch in:
    // its owner holds `m` for the whole attempt. A contended victim is
    // reported as barren (0 pages) and the pressure loop moves on.
    std::unique_lock<std::mutex> own(tenant.m, std::try_to_lock);
    if (!own.owns_lock()) return 0;
    const std::uint64_t written = writeOut(tenant.inner);
    if (written > 0) {
        ++tenant.evictions;
        urts_->machine().trace().publishLight(
            trace::EventKind::ServeTenantEvict, trace::kNoCore, 0, tenant.id,
            written);
    }
    return written;
}

Status
TenantRegistry::unloadInner(TenantHandle& tenant)
{
    if (!tenant.inner) return Status::ok();
    // Detach from the gateway first so a failed unload cannot leave the
    // slot pointing at a half-dead enclave.
    GatewayState& state = *gateways_[tenant.gatewayIndex].state;
    sdk::LoadedEnclave* old = tenant.inner;
    state.slots[tenant.slot] = nullptr;
    tenant.setInner(nullptr);
    Status st = urts_->unload(old);
    if (!st) {
        // Destroy refused (a page still busy): restore and report; the
        // caller's retry contract takes it from there.
        tenant.setInner(old);
        state.slots[tenant.slot] = old;
    }
    return st;
}

Status
TenantRegistry::rebuildInner(TenantHandle& tenant)
{
    Gateway& gateway = gateways_[tenant.gatewayIndex];
    auto inner = loadInner(tenant.image,
                           tenantFunctions(tenant.id, tenant.workload),
                           gateway);
    if (!inner) return inner.status();  // stays inner-less; retried lazily
    if (!tenant.sessionKey.empty()) {
        // The client holds the EGETKEY-rooted session key; the fresh
        // instance must re-derive it (or unseal it, when it came from
        // another host) or every post-rebuild reseal would be refused.
        // On failure the tenant stays inner-less (the rekey entry itself
        // can be hit by chaos faults) and is retried.
        Status rk = rekeyInner(inner.value(), tenant.sealedSessionKey);
        if (!rk) {
            (void)urts_->unload(inner.value());
            return rk;
        }
    }
    tenant.setInner(inner.value());
    gateway.state->slots[tenant.slot] = inner.value();
    ++tenant.rebuilds;
    // In-enclave state was lost: clients must re-resolve placement (new
    // epoch) and learn it is a fresh incarnation (reset expectations).
    tenant.epoch.fetch_add(1, std::memory_order_relaxed);
    tenant.incarnation.fetch_add(1, std::memory_order_relaxed);
    urts_->machine().trace().publishLight(
        trace::EventKind::ServeTenantRebuild, trace::kNoCore, 0, tenant.id,
        tenant.rebuilds);
    return Status::ok();
}

std::uint64_t
TenantRegistry::writeOut(sdk::LoadedEnclave* enclave)
{
    if (!enclave) return 0;
    os::Kernel& kernel = urts_->kernel();
    const os::EnclaveRecord* rec = kernel.enclaveRecord(enclave->secsPage());
    if (!rec) return 0;
    std::vector<hw::Vaddr> vas;
    vas.reserve(rec->pages.size());
    for (const auto& [va, pa] : rec->pages) vas.push_back(va);
    std::uint64_t written = 0;
    for (hw::Vaddr va : vas) {
        // TCS pages refuse EBLOCK; everything evictable goes out.
        if (kernel.evictPage(enclave->secsPage(), va)) ++written;
    }
    return written;
}

Status
TenantRegistry::rebuildTenant(TenantHandle& tenant)
{
    if (!gateways_[tenant.gatewayIndex].outer) {
        // A failed subtree rebuild left the gateway layer missing; the
        // tenant cannot come back without it. Double-checked under the
        // rebuild lock: a sibling's self-heal may already have restored
        // it, and two concurrent makeGateway calls would orphan one
        // gateway enclave (unevictable pages — eventual EPC exhaustion).
        std::lock_guard<std::mutex> g(gatewayRebuildM_);
        if (!gateways_[tenant.gatewayIndex].outer) {
            Status st = makeGateway(tenant.gatewayIndex);
            if (!st) return st;
        }
    }
    Status st = unloadInner(tenant);
    if (!st) return st;  // the worker retries on the tenant's next batch
    return rebuildInner(tenant);
}

std::uint64_t
TenantRegistry::evictSubtree(std::size_t gatewayIndex)
{
    if (gatewayIndex >= gateways_.size()) return 0;
    std::uint64_t written = 0;
    for (auto& [id, tenant] : tenants_) {
        if (tenant->gatewayIndex == gatewayIndex) {
            written += evictTenant(*tenant);
        }
    }
    return written + writeOut(gateways_[gatewayIndex].outer);
}

std::optional<TenantRegistry::SubtreeLocks>
TenantRegistry::trySiblingLocks(const TenantHandle& held)
{
    SubtreeLocks owned;
    for (auto& [id, tenant] : tenants_) {
        if (tenant->gatewayIndex != held.gatewayIndex ||
            tenant.get() == &held) {
            continue;
        }
        owned.emplace_back(tenant->m, std::try_to_lock);
        if (!owned.back().owns_lock()) return std::nullopt;
    }
    return owned;
}

Status
TenantRegistry::rebuildGatewaySubtree(std::size_t gatewayIndex,
                                      bool membersLocked)
{
    if (gatewayIndex >= gateways_.size()) return Err::NotFound;
    Gateway& gateway = gateways_[gatewayIndex];

    // Own every tenant of the subtree for the whole teardown/rebuild so
    // the pressure manager (which try_locks from evictTenant) can never
    // page a half-dead enclave.
    std::vector<TenantHandle*> members;
    for (auto& [id, tenant] : tenants_) {
        if (tenant->gatewayIndex == gatewayIndex) {
            members.push_back(tenant.get());
        }
    }
    SubtreeLocks owned;
    if (!membersLocked) {
        owned.reserve(members.size());
        for (TenantHandle* tenant : members) owned.emplace_back(tenant->m);
    }
    // After the tenant mutexes (lock order: tenant before gateway):
    // the gateway layer must not be torn down while a sibling's
    // self-heal is mid-recreate on the same index.
    std::lock_guard<std::mutex> gw(gatewayRebuildM_);

    // Leaves first: a gateway with live inner associations refuses
    // destruction.
    for (TenantHandle* tenant : members) {
        Status st = unloadInner(*tenant);
        if (!st) return st;
    }
    if (gateway.outer) {
        sdk::LoadedEnclave* old = gateway.outer;
        gateway.outer = nullptr;
        Status st = urts_->unload(old);
        if (!st) {
            gateway.outer = old;
            return st;
        }
    }

    // Bottom-up rebuild: gateway (re-associated under the CVM root when
    // nested), then every tenant back into its old slot.
    Status result = makeGateway(gatewayIndex);
    if (!result) return result;  // whole subtree stays down
    for (TenantHandle* tenant : members) {
        // A tenant that fails stays inner-less until a later rebuild
        // succeeds (same lazy-retry contract as rebuildTenant); keep
        // restoring the rest.
        Status st = rebuildInner(*tenant);
        if (!st) result = st;
    }
    if (result.isOk()) {
        // The subtree is whole again: a crashed marker on this gateway
        // has been healed by the rebuild.
        gateway.crashed.store(false, std::memory_order_relaxed);
    }
    return result;
}

Result<Bytes>
TenantRegistry::provisionInner(sdk::LoadedEnclave* inner,
                               const sgx::Measurement& verifierMr,
                               ByteView nonce)
{
    if (!inner) return Err::Unavailable;
    if (nonce.size() != attest::kNonceSize) return Err::BadCallBuffer;
    return controlCall(inner, "tenant_provision",
                       provisionArg(1, verifierMr, nonce));
}

Status
TenantRegistry::rekeyInner(sdk::LoadedEnclave* inner, ByteView sealedKey)
{
    if (!inner) return Err::Unavailable;
    return controlCall(inner, "tenant_provision",
                       provisionArg(0, {}, kNoNonce, sealedKey))
        .status();
}

Status
TenantRegistry::adoptSessionKey(TenantHandle& tenant, Bytes sessionKey)
{
    if (!tenant.inner) return Err::Unavailable;
    auto sealed =
        controlCall(tenant.inner, "tenant_provision", provisionArg(2));
    if (!sealed) return sealed.status();
    tenant.sessionKey = std::move(sessionKey);
    tenant.sealedSessionKey = std::move(sealed.value());
    return Status::ok();
}

Result<Bytes>
TenantRegistry::exportInner(sdk::LoadedEnclave* inner,
                            const sgx::Measurement& dstMr)
{
    if (!inner) return Err::Unavailable;
    return controlCall(inner, "tenant_export",
                       WireWriter(32).bytes(dstMr).take());
}

Status
TenantRegistry::importInner(sdk::LoadedEnclave* inner,
                            const sgx::Measurement& srcMr, ByteView sealed)
{
    if (!inner) return Err::Unavailable;
    return controlCall(inner, "tenant_import",
                       WireWriter(32 + sealed.size())
                           .bytes(srcMr).bytes(sealed).take())
        .status();
}

Result<Bytes>
TenantRegistry::controlCall(sdk::LoadedEnclave* inner, const char* name,
                            ByteView arg)
{
    std::lock_guard<std::mutex> onCore(coreM_[0]);
    return urts_->ecallChain(urts_->chainTo(inner), name, arg);
}

std::uint64_t
TenantRegistry::drainTenantLocked(TenantHandle& tenant)
{
    return writeOut(tenant.inner);
}

Result<std::size_t>
TenantRegistry::pickGatewayExcept(std::size_t exclude)
{
    for (std::size_t i = 0; i < gateways_.size(); ++i) {
        if (i == exclude) continue;
        if (gateways_[i].outer != nullptr && gateways_[i].hasRoom()) {
            return i;
        }
    }
    return addGateway();
}

Result<TenantRegistry::RelocationTicket>
TenantRegistry::stageRelocation(TenantHandle& tenant,
                                std::size_t targetGateway)
{
    if (targetGateway >= gateways_.size() ||
        targetGateway == tenant.gatewayIndex) {
        return Err::NotFound;
    }
    Gateway& gateway = gateways_[targetGateway];
    if (!gateway.outer || !gateway.hasRoom()) return Err::Backpressure;

    auto inner = loadInner(tenant.image,
                           tenantFunctions(tenant.id, tenant.workload),
                           gateway);
    if (!inner) return inner.status();  // source untouched, still serving

    RelocationTicket ticket;
    ticket.gatewayIndex = targetGateway;
    ticket.inner = inner.value();
    // Claim the slot now so a concurrent ensure() cannot take it; the
    // ticket is either committed or abandoned before dispatches see it.
    ticket.slot = claimSlot(gateway, inner.value());
    return ticket;
}

void
TenantRegistry::abandonRelocation(const RelocationTicket& ticket)
{
    releaseSlot(gateways_[ticket.gatewayIndex], ticket.slot);
    (void)urts_->unload(ticket.inner);
}

Status
TenantRegistry::commitRelocation(TenantHandle& tenant,
                                 const RelocationTicket& ticket)
{
    // A refused source teardown (busy page) leaves the source serving;
    // the staged instance is abandoned by the caller.
    Status st = unloadInner(tenant);
    if (!st) return st;
    releaseSlot(gateways_[tenant.gatewayIndex], tenant.slot);
    tenant.setInner(ticket.inner);
    tenant.gatewayIndex = ticket.gatewayIndex;
    tenant.slot = ticket.slot;
    ++tenant.migrations;
    // Placement changed but the session survived the move: new epoch,
    // same incarnation (clients keep their key and sequence counter).
    tenant.epoch.fetch_add(1, std::memory_order_relaxed);
    urts_->machine().trace().publishLight(
        trace::EventKind::ServeTenantMigrate, trace::kNoCore, 0, tenant.id,
        0);
    return Status::ok();
}

Status
TenantRegistry::retireTenant(TenantId id)
{
    auto it = tenants_.find(id);
    if (it == tenants_.end()) return Err::NotFound;
    TenantHandle* tenant = it->second.get();
    {
        // Scoped: the handle (and its mutex) dies with the map entry.
        std::lock_guard<std::mutex> own(tenant->m);
        Status st = unloadInner(*tenant);
        if (!st) return st;
        // An inner-less tenant still owns its slot until it is retired.
        releaseSlot(gateways_[tenant->gatewayIndex], tenant->slot);
    }
    tenants_.erase(it);
    return Status::ok();
}

TenantHandle*
TenantRegistry::tenantBySecs(hw::Paddr secsPage)
{
    for (auto& [id, tenant] : tenants_) {
        if (tenant->innerSecs.load(std::memory_order_relaxed) == secsPage) {
            return tenant.get();
        }
    }
    return nullptr;
}

}  // namespace nesgx::serve
