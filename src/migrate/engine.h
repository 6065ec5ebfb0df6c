/**
 * Live tenant migration (ROADMAP item 3; "The Road to Trust" fleet
 * scenario): relocate a serving tenant — session key, replay counter,
 * sql journal and all — to a different gateway outer on the same host,
 * or to a different simulated host Machine entirely, without breaking
 * the client's sealed session.
 *
 * Protocol (per move; see DESIGN.md §15 for the state machine):
 *   1. EXPORT   the source inner seals a TenantSnapshot under a
 *               transport key derived from its EGETKEY identity sealing
 *               key and the destination identity.
 *   2. DRAIN    the source's EPC pages are EWB'd out (the paper's
 *               paging path doubles as the migration datapath).
 *   3. STAGE    a fresh inner is built in the target gateway (or the
 *               target host); the source is still authoritative.
 *   4. ATTEST   the staged instance re-runs the NEREPORT onboarding
 *               challenge through its *new* ancestor chain.
 *   5. IMPORT   the staged inner opens the snapshot and resumes the
 *               session (sequence continuity: the replay high-water
 *               mark survives the move).
 *   6. COMMIT   the source is torn down and routing flips. Any failure
 *               in 1-5 aborts back to the source instance intact.
 *
 * Cross-host moves re-wrap the snapshot between the two machines' root
 * of trust domains: the engine models the mutually-attested migration
 * service both hosts trust (the attested-DH channel of SGX sealing
 * migration schemes), so neither enclave's sealing key ever leaves its
 * machine.
 *
 * PR 5's poisoned-tenant rebuild is this protocol minus EXPORT/IMPORT
 * (nothing to carry: the state is exactly what was lost); PR 8's
 * subtree rebuild is the same degenerate case applied bottom-up.
 */
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "serve/client.h"
#include "serve/service.h"

namespace nesgx::migrate {

struct MigrationStats {
    std::uint64_t attempts = 0;
    std::uint64_t gatewayMoves = 0;  ///< committed same-host moves
    std::uint64_t hostMoves = 0;     ///< committed cross-host moves
    std::uint64_t aborted = 0;       ///< failed attempts (source intact)
    std::uint64_t rolledBack = 0;    ///< aborts after staging began
    std::uint64_t pagesDrained = 0;  ///< EWB'd source pages
    std::uint64_t requeued = 0;      ///< queued requests carried across
    /// Cycles per committed move; a cross-host move adds the advance of
    /// the source's clock and of the destination's.
    serve::Histogram latency;
};

class MigrationEngine {
  public:
    /** Live-migrates `id` to another gateway of the same service (the
     *  target is any other gateway with room, building a fresh one when
     *  the fleet is full). */
    Status migrateToGateway(serve::TenantService& svc, serve::TenantId id);
    Status migrateToGateway(serve::TenantService& svc, serve::TenantId id,
                            std::size_t targetGateway);

    /** Live-migrates `id` from `src` to `dst` — two different services,
     *  typically on two different host Machines. The destination
     *  onboards (attested) first; the source keeps serving until the
     *  import commits, then is retired. Queued requests move with the
     *  tenant. */
    Status migrateToHost(serve::TenantService& src, serve::TenantService& dst,
                         serve::TenantId id);

    const MigrationStats& stats() const { return stats_; }

  private:
    Status abort(Status why);

    /** The source half of every move, under the caller's `tenant.m`:
     *  disarm the switchless channel, page the inner back in, honour the
     *  export-fail fault, seal the session, then EWB-drain the source.
     *  A failure leaves the source serving. */
    Result<Bytes> exportSource(serve::TenantService& svc,
                               serve::TenantHandle& tenant);

    MigrationStats stats_;
};

/**
 * A tiny multi-host fleet front: routes tenant traffic to whichever
 * host currently serves the tenant, and flips the route on a cross-host
 * migration. The bench drives 24 tenants across two simulated hosts
 * through this one object.
 */
class Fleet {
  public:
    /** Registers a host; returns its index. Not owned. */
    std::size_t addHost(serve::TenantService& svc);

    serve::TenantService* host(std::size_t index);
    std::size_t hostCount() const { return hosts_.size(); }

    /** The host currently serving `id` (default: host 0). */
    serve::TenantService* hostOf(serve::TenantId id);
    std::size_t hostIndexOf(serve::TenantId id) const;

    /** Onboards `id` on `hostIndex` and records the route. */
    Result<serve::TenantHandle*> addTenant(serve::TenantId id,
                                           serve::Workload workload,
                                           std::size_t hostIndex);

    /** Routes one sealed request to the tenant's current host. */
    Status submit(serve::TenantId id, Bytes sealed);

    /** Routes one epoch-stamped request (see serve::stampEpoch) to the
     *  tenant's current host; stale stamps come back Err::WrongEpoch. */
    Status submitStamped(serve::TenantId id, Bytes stamped);

    /** Resolves the tenant's current placement on its current host —
     *  what a redirected client re-reads before retrying. */
    serve::TenantService::Placement placement(serve::TenantId id);

    /** Pumps every host's queues; returns total batches. */
    std::size_t pumpAll();

    /** Drains completions from every host. */
    std::vector<serve::Completion> drainAll();

    /** Cross-host move via the engine, flipping the route on success. */
    Status migrateAcross(MigrationEngine& engine, serve::TenantId id,
                         std::size_t dstHost);

  private:
    std::vector<serve::TenantService*> hosts_;
    std::map<serve::TenantId, std::size_t> route_;
};

}  // namespace nesgx::migrate
