#include "supervise/supervisor.h"

#include <optional>
#include <vector>

#include "trace/bus.h"

namespace nesgx::supervise {

const char*
wedgeReasonName(WedgeReason r)
{
    switch (r) {
      case WedgeReason::None: return "none";
      case WedgeReason::NoProgress: return "no-progress";
      case WedgeReason::RingWedged: return "ring-wedged";
      case WedgeReason::GatewayDown: return "gateway-down";
      case WedgeReason::HostDegraded: return "host-degraded";
    }
    return "?";
}

const char*
rungName(Rung r)
{
    switch (r) {
      case Rung::Healthy: return "healthy";
      case Rung::Kick: return "kick";
      case Rung::TenantRebuild: return "tenant-rebuild";
      case Rung::SubtreeRebuild: return "subtree-rebuild";
      case Rung::Evacuate: return "evacuate";
    }
    return "?";
}

Supervisor::Supervisor(serve::TenantService& svc, Config config)
    : svc_(&svc), config_(config)
{
}

void
Supervisor::attachEngine(migrate::MigrationEngine& engine)
{
    engine_ = &engine;
}

void
Supervisor::attachFleet(migrate::Fleet& fleet,
                        migrate::MigrationEngine& engine,
                        std::size_t hostIndex)
{
    fleet_ = &fleet;
    engine_ = &engine;
    hostIndex_ = hostIndex;
}

sgx::Machine&
Supervisor::machine()
{
    return svc_->registry().urts().machine();
}

WedgeReason
Supervisor::classify(const serve::TenantHandle& tenant,
                     std::size_t queued) const
{
    serve::TenantRegistry& reg = svc_->registry();
    // Severity order: the widest failure domain wins, so the ladder
    // enters at the rung that can actually cure it.
    if (reg.degraded()) return WedgeReason::HostDegraded;
    if (reg.gatewayCrashed(tenant.gatewayIndex)) {
        return WedgeReason::GatewayDown;
    }
    if (auto* engine = svc_->switchlessEngine()) {
        if (engine->channelProgress(tenant.id).wedged) {
            return WedgeReason::RingWedged;
        }
    }
    if (queued > 0) return WedgeReason::NoProgress;
    if (tenant.breaker.open) return WedgeReason::NoProgress;
    return WedgeReason::None;  // idle, not wedged
}

Rung
Supervisor::entryRung(WedgeReason reason) const
{
    switch (reason) {
      case WedgeReason::HostDegraded:
        // Rebuilding on a dying host is wasted work; leave instead.
        return Rung::Evacuate;
      case WedgeReason::GatewayDown:
        // Only a subtree rebuild clears the crash marker.
        return Rung::SubtreeRebuild;
      case WedgeReason::RingWedged:
        return Rung::Kick;
      case WedgeReason::NoProgress:
        // A kick is only meaningful when a channel exists to kick.
        return svc_->switchlessEngine() ? Rung::Kick : Rung::TenantRebuild;
      case WedgeReason::None: break;
    }
    return Rung::Healthy;
}

bool
Supervisor::act(serve::TenantHandle& tenant, Watch& watch)
{
    switch (watch.rung) {
      case Rung::Kick:
        // Nothing to kick without rings; climb next tick.
        if (!svc_->switchlessEngine()) return false;
        svc_->registry().disarm(tenant.id);
        ++stats_.kicks;
        return true;
      case Rung::TenantRebuild:
        ++stats_.tenantRebuilds;
        (void)svc_->pool().rebuildTenant(tenant);
        return true;
      case Rung::SubtreeRebuild:
        ++stats_.subtreeRebuilds;
        (void)svc_->pool().rebuildSubtree(tenant.gatewayIndex);
        return true;
      case Rung::Evacuate:
        return evacuate(tenant, watch);
      case Rung::Healthy: break;
    }
    return false;
}

bool
Supervisor::evacuate(serve::TenantHandle& tenant, Watch& watch)
{
    // A committed host move destroys `tenant` (the source registry
    // retires it): capture everything needed up front and never touch
    // the handle after the migration call.
    const serve::TenantId id = tenant.id;
    const std::uint64_t begin = machine().clock().cycles();
    Status st = Err::Unavailable;
    std::uint64_t hop = 0;  // SuperviseEvacuate arg1: 0 gateway / 1 host

    // First non-degraded host that is not this one.
    std::optional<std::size_t> peer;
    for (std::size_t i = 1; fleet_ && i < fleet_->hostCount(); ++i) {
        const std::size_t cand = (hostIndex_ + i) % fleet_->hostCount();
        serve::TenantService* host = fleet_->host(cand);
        if (host && !host->registry().degraded()) {
            peer = cand;
            break;
        }
    }
    if (engine_ && !peer && svc_->registry().degraded()) {
        // A degraded host with no healthy peer: a move to another
        // gateway of this host leaves the tenant just as wedged, so the
        // ladder tops out without moving.
        ++stats_.evacuationFailures;
        return true;
    }

    // A crashed gateway blocks the export path itself (every dispatch
    // through it refuses): rebuild the subtree first so the evacuation
    // has a live source to drain.
    if (svc_->registry().gatewayCrashed(tenant.gatewayIndex)) {
        ++stats_.subtreeRebuilds;
        (void)svc_->pool().rebuildSubtree(tenant.gatewayIndex);
    }

    if (!engine_) return false;  // no engine attached: the ladder tops out
    std::uint64_t dstCycles = 0;
    if (peer) {
        hop = 1;
        // The move runs on both machines, each on its own clock: it costs
        // what both clocks advance.
        const auto& dst = fleet_->host(*peer)->registry().urts().machine();
        const std::uint64_t dstBegin = dst.clock().cycles();
        st = fleet_->migrateAcross(*engine_, id, *peer);
        dstCycles = dst.clock().cycles() - dstBegin;
    } else {
        hop = 0;
        st = engine_->migrateToGateway(*svc_, id);
    }

    const std::uint64_t now = machine().clock().cycles();
    if (!st) {
        ++stats_.evacuationFailures;
        return true;
    }
    ++stats_.evacuations;
    stats_.evacuationLatency.add(now - begin + dstCycles);
    machine().trace().publishLight(trace::EventKind::SuperviseEvacuate,
                                   trace::kNoCore, 0, id, hop);
    // The evacuation resolved the wedge: the tenant now lives somewhere
    // this failure domain cannot reach. For a host move the watch is
    // swept when the tenant vanishes from the registry; for a gateway
    // move reset it so the fresh placement starts clean.
    ++stats_.recoveries;
    stats_.recoveryLatency.add(now - watch.wedgedAtCycles + dstCycles);
    watch.wedged = false;
    watch.reason = WedgeReason::None;
    watch.rung = Rung::Healthy;
    watch.staleTicks = 0;
    watch.rungTicks = 0;
    watch.lastProgressCycles = now;
    return true;
}

std::size_t
Supervisor::tick()
{
    ++stats_.ticks;
    sgx::Machine& m = machine();
    serve::TenantRegistry& reg = svc_->registry();
    const std::uint64_t now = m.clock().cycles();

    // Sweep watches whose tenants left (evacuated cross-host, retired).
    for (auto it = watches_.begin(); it != watches_.end();) {
        if (!reg.find(it->first)) {
            it = watches_.erase(it);
        } else {
            ++it;
        }
    }

    // Snapshot the id set first: ladder actions (evacuation) mutate the
    // tenant map mid-loop.
    std::vector<serve::TenantId> ids;
    ids.reserve(reg.tenants().size());
    for (const auto& [id, handle] : reg.tenants()) ids.push_back(id);

    std::size_t actions = 0;
    for (serve::TenantId id : ids) {
        serve::TenantHandle* tenant = reg.find(id);
        if (!tenant) continue;
        auto [slot, firstLook] = watches_.try_emplace(id);
        Watch& watch = slot->second;
        if (watch.lastProgressCycles == 0) watch.lastProgressCycles = now;

        const std::uint64_t ok = tenant->okServed.load();
        if (ok != watch.lastOkServed) {
            // Progress: the heartbeat advanced since the last tick.
            if (watch.wedged) {
                ++stats_.recoveries;
                stats_.recoveryLatency.add(now - watch.wedgedAtCycles);
            }
            watch.lastOkServed = ok;
            watch.lastProgressCycles = now;
            watch.staleTicks = 0;
            watch.wedged = false;
            watch.reason = WedgeReason::None;
            watch.rung = Rung::Healthy;
            watch.rungTicks = 0;
            continue;
        }

        const WedgeReason reason =
            classify(*tenant, svc_->admission().depth(id));
        if (reason == WedgeReason::None) {
            // Idle: no work queued, nothing broken — not a wedge.
            if (!watch.wedged) watch.staleTicks = 0;
            watch.lastSeenCycles = now;
            continue;
        }

        // Zero simulated time since this watch was last sampled means
        // no new evidence: callers that tick many times per serving
        // round (the CLI recovery loop ticks once per tenant) must not
        // let a single stall escalate through the whole ladder before
        // the pool's own half-open probes even come due. A first look is
        // a baseline unless it finds a failure marker: queued work or an
        // open breaker may only be waiting for the tenant's worker.
        const bool clockAdvanced =
            firstLook ? reason != WedgeReason::NoProgress
                      : now != watch.lastSeenCycles;
        watch.lastSeenCycles = now;

        if (!watch.wedged) {
            if (!clockAdvanced) continue;
            ++watch.staleTicks;
            if (watch.staleTicks < config_.wedgeTicks) continue;
            // Flag the wedge and take the entry rung's action at once:
            // detection already cost `wedgeTicks` of patience.
            watch.wedged = true;
            watch.wedgedAtCycles = now;
            watch.reason = reason;
            watch.rung = entryRung(reason);
            watch.rungTicks = 0;
            ++stats_.wedges;
            stats_.detectionLatency.add(now - watch.lastProgressCycles);
            m.trace().publishLight(trace::EventKind::SuperviseWedge,
                                   trace::kNoCore, 0, id,
                                   std::uint64_t(reason));
            m.trace().publishLight(trace::EventKind::SuperviseEscalate,
                                   trace::kNoCore, 0, id,
                                   std::uint64_t(watch.rung));
            if (act(*tenant, watch)) ++actions;
            if (!reg.find(id)) watches_.erase(id);
            continue;
        }

        // Already wedged. A widening failure domain (e.g. the host
        // degraded after a plain wedge) jumps the ladder immediately;
        // otherwise the current rung gets `rungPatience` ticks before
        // the climb.
        const Rung needed = entryRung(reason);
        bool climb = false;
        if (std::uint8_t(needed) > std::uint8_t(watch.rung)) {
            watch.rung = needed;
            climb = true;
        } else if (!clockAdvanced) {
            continue;
        } else if (++watch.rungTicks >= config_.rungPatience) {
            // Top rung retries instead of pinning: an evacuation that
            // failed (no healthy destination yet, mid-storm abort) gets
            // another attempt every rungPatience ticks.
            if (watch.rung < Rung::Evacuate) {
                watch.rung = Rung(std::uint8_t(watch.rung) + 1);
            }
            climb = true;
        }
        if (!climb) continue;
        watch.rungTicks = 0;
        m.trace().publishLight(trace::EventKind::SuperviseEscalate,
                               trace::kNoCore, 0, id,
                               std::uint64_t(watch.rung));
        if (act(*tenant, watch)) ++actions;
        if (!reg.find(id)) watches_.erase(id);
    }
    return actions;
}

}  // namespace nesgx::supervise
