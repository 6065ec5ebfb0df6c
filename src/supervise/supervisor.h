/**
 * Failure-domain supervision (ISSUE 10 tentpole): a deterministic,
 * sim-clock-driven health supervisor over one TenantService.
 *
 * The supervisor is a pure observer until something wedges. Each
 * explicit tick() — benches and the CLI drive it between serving
 * rounds, there is no hidden thread — samples every tenant's liveness
 * from counters the serving stack already maintains:
 *
 *   progress  = TenantHandle::okServed (verified-ok completions)
 *   activity  = queued admission depth, a wedged switchless channel,
 *               a crashed gateway marker, or a degraded-host marker
 *
 * A tenant with activity but no progress for `wedgeTicks` consecutive
 * ticks is flagged *wedged* (SuperviseWedge, detection latency =
 * now - last progress). A wedged tenant then climbs a typed escalation
 * ladder, one rung per `rungPatience` ticks without recovery:
 *
 *   Kick           disarm the switchless channel; the next dispatch
 *                  re-arms a fresh one (cures poller wedges)
 *   TenantRebuild  destroy + rebuild the tenant's inner
 *   SubtreeRebuild destroy + rebuild the whole gateway subtree
 *                  (cures crashed gateways; clears the crash marker)
 *   Evacuate       live-migrate the tenant away — to another gateway,
 *                  or (fleet-attached) to another host entirely
 *
 * The entry rung is chosen by the wedge reason: a crashed gateway
 * starts at SubtreeRebuild, a degraded host goes straight to Evacuate
 * (rebuilding on a dying host is wasted work; the control plane stays
 * up precisely so tenants can leave). Evacuation only ever targets a
 * non-degraded peer host; a degraded host without one tops the ladder
 * out (an evacuation failure, no move), since another gateway of the
 * same host would leave the tenant just as wedged. Every rung bumps the
 * tenant's placement epoch through the machinery it invokes, so
 * epoch-fenced clients are redirected instead of talking to a stale
 * placement.
 *
 * Determinism: ticks read the sim clock, never wall time; all actions
 * run synchronously inside tick(). A service that never constructs a
 * Supervisor executes byte-identical traces to the pre-supervision
 * stack.
 */
#pragma once

#include <cstdint>
#include <map>

#include "migrate/engine.h"
#include "serve/histogram.h"
#include "serve/service.h"

namespace nesgx::supervise {

/** Why a tenant was flagged wedged (SuperviseWedge arg1). */
enum class WedgeReason : std::uint8_t {
    None = 0,
    NoProgress = 1,    ///< queued work, no verified completions
    RingWedged = 2,    ///< switchless poller stopped draining
    GatewayDown = 3,   ///< gateway crash marker set
    HostDegraded = 4,  ///< whole-host degrade marker set
};

const char* wedgeReasonName(WedgeReason r);

/** Escalation ladder rungs (SuperviseEscalate arg1). Ordered: the
 *  supervisor only ever climbs. */
enum class Rung : std::uint8_t {
    Healthy = 0,
    Kick = 1,
    TenantRebuild = 2,
    SubtreeRebuild = 3,
    Evacuate = 4,
};

const char* rungName(Rung r);

struct Config {
    /** Consecutive no-progress-with-activity ticks before a tenant is
     *  flagged wedged. */
    std::uint64_t wedgeTicks = 2;
    /** Ticks a rung's action gets to restore progress before the
     *  supervisor climbs to the next rung. */
    std::uint64_t rungPatience = 2;
};

struct SupervisorStats {
    std::uint64_t ticks = 0;
    std::uint64_t wedges = 0;           ///< tenants flagged wedged
    std::uint64_t kicks = 0;            ///< switchless channel kicks
    std::uint64_t tenantRebuilds = 0;   ///< ladder-initiated rebuilds
    std::uint64_t subtreeRebuilds = 0;  ///< ladder-initiated subtree rebuilds
    std::uint64_t evacuations = 0;      ///< committed evacuations
    std::uint64_t evacuationFailures = 0;
    std::uint64_t recoveries = 0;       ///< wedged tenants that recovered
    /** Cycles from last progress to the wedge flag. */
    serve::Histogram detectionLatency;
    /** Cycles per committed evacuation, on both machines' clocks. */
    serve::Histogram evacuationLatency;
    /** Cycles from wedge flag to the first post-wedge progress. */
    serve::Histogram recoveryLatency;
};

class Supervisor {
  public:
    Supervisor(serve::TenantService& svc, Config config = {});

    /** Enables the Evacuate rung within this host: wedged tenants are
     *  live-migrated to another gateway. Not owned. */
    void attachEngine(migrate::MigrationEngine& engine);

    /** Enables cross-host evacuation: wedged tenants on this host
     *  (fleet index `hostIndex`) are migrated to another fleet host —
     *  the only rung that can save tenants of a degraded host. */
    void attachFleet(migrate::Fleet& fleet, migrate::MigrationEngine& engine,
                     std::size_t hostIndex);

    /**
     * One supervision pass over every tenant of the service: sample
     * liveness, flag new wedges, run/escalate ladder actions for
     * already-wedged tenants. Returns the number of recovery actions
     * taken (0 = pure observation).
     */
    std::size_t tick();

    const SupervisorStats& stats() const { return stats_; }

  private:
    /** Per-tenant watchdog state. */
    struct Watch {
        std::uint64_t lastOkServed = 0;
        std::uint64_t lastProgressCycles = 0;
        std::uint64_t lastSeenCycles = 0;
        std::uint64_t staleTicks = 0;
        bool wedged = false;
        std::uint64_t wedgedAtCycles = 0;
        WedgeReason reason = WedgeReason::None;
        Rung rung = Rung::Healthy;
        std::uint64_t rungTicks = 0;
    };

    sgx::Machine& machine();
    WedgeReason classify(const serve::TenantHandle& tenant,
                         std::size_t queued) const;
    Rung entryRung(WedgeReason reason) const;
    /** Runs one rung's recovery action; true when the action was
     *  attempted (regardless of whether it succeeded). */
    bool act(serve::TenantHandle& tenant, Watch& watch);
    bool evacuate(serve::TenantHandle& tenant, Watch& watch);

    serve::TenantService* svc_;
    Config config_;
    migrate::MigrationEngine* engine_ = nullptr;
    migrate::Fleet* fleet_ = nullptr;
    std::size_t hostIndex_ = 0;
    SupervisorStats stats_;
    std::map<serve::TenantId, Watch> watches_;
};

}  // namespace nesgx::supervise
