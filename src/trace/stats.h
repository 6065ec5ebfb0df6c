/**
 * StatsCounters: the counter block formerly known as `Machine::Stats`,
 * now derived from the event stream instead of mutated inline.
 *
 * StatsSink::accumulate is the single place that maps events onto
 * counters; the TraceBus owns one StatsSink and calls accumulate
 * directly (non-virtually), so with no subscribers attached every
 * emission folds to "branch + counter increment" after inlining — the
 * kind argument is a compile-time constant at every call site, so the
 * switch disappears.
 *
 * Counter semantics are bit-compatible with the pre-bus inline
 * increments; the quirks worth knowing:
 *  - aexCount counts AexTaken events, which the machine emits on the
 *    success path AND the fail-closed null-bottom-TCS path (both paths
 *    accounted an AEX before the refactor).
 *  - transition counters (eenterCount, ...) count successful LeafExit
 *    events; AEX is excluded there (see above).
 *  - tlbFlushes counts only full per-core flushes (TlbFlush), never the
 *    selective invalidations (TlbInvalidatePage/Secs).
 */
#pragma once

#include "support/counter.h"
#include "trace/event.h"

namespace nesgx::trace {

/**
 * All counters are relaxed-atomic (support/counter.h): the bus's inline
 * StatsSink is hit from every worker thread in `--threads N` mode, and
 * pure accumulation needs no ordering — totals stay deterministic and
 * the single-thread byte-identity of the golden corpus is unaffected.
 */
struct StatsCounters {
    Counter tlbMisses;
    Counter tlbHits;
    Counter nestedChecks;   ///< outer-chain walks taken
    Counter accessFaults;
    Counter eenterCount;
    Counter eexitCount;
    Counter neenterCount;
    Counter neexitCount;
    Counter aexCount;
    Counter eresumeCount;
    Counter ipiCount;
    Counter meeLines;       ///< cachelines through the MEE
    Counter llcHitLines;
    // --- tagged-TLB / closure-cache fast path -----------------------
    Counter tlbFlushes;        ///< full per-core flushes taken
    Counter flushesAvoided;    ///< transitions that skipped one
    Counter closureCacheHits;
    Counter closureCacheMisses;
    Counter taggedLookupRejects; ///< VPN hit, wrong context tag
    // --- serving layer / kernel victim selection --------------------
    Counter victimPicks;         ///< kernel evict-victim choices
    Counter serveBatches;        ///< batched dispatches completed
    Counter serveBatchedRequests; ///< requests carried by them
    Counter serveSheds;          ///< requests dropped by deadline
    Counter serveTenantEvictions; ///< tenants evicted for pressure
    Counter serveTenantReloads;   ///< cold-start reloads
    // --- fault injection / self-healing -----------------------------
    Counter faultsInjected;       ///< FaultInjector hits fired
    Counter serveRetries;         ///< transient redispatches
    Counter serveTenantRebuilds;  ///< poisoned inners rebuilt
    Counter serveTenantMigrations; ///< live tenants relocated
    Counter serveBreakerOpens;    ///< circuit-breaker opens
    Counter serveBreakerCloses;   ///< half-open probes passed
    Counter serveWatermarkMisses; ///< relieve() watermark unmet
    // --- switchless call layer ---------------------------------------
    Counter switchlessPosts;      ///< descriptors pushed to rings
    Counter switchlessDrains;     ///< descriptors drained in-enclave
    Counter switchlessFallbacks;  ///< rings abandoned to classic path
    Counter switchlessPolls;      ///< ring-header polls by pollers
    Counter switchlessRefusals;   ///< over-full ring headers refused
    // --- supervision / epoch fencing ---------------------------------
    Counter superviseWedges;      ///< wedge conditions flagged
    Counter superviseEscalations; ///< ladder rungs taken
    Counter superviseEvacuations; ///< tenants evacuated by the ladder
    Counter serveWrongEpochs;     ///< stale-epoch requests refused
};

class StatsSink {
  public:
    StatsCounters& counters() { return counters_; }
    const StatsCounters& counters() const { return counters_; }
    void reset() { counters_ = StatsCounters{}; }

    /** Counter fold for every kind but LeafExit. This is the no-sink
     *  emission fast path: `kind` is a compile-time constant at every
     *  call site, so after inlining the switch folds to one increment —
     *  no TraceEvent is ever materialized. */
    void accumulateLight(EventKind kind, std::uint64_t arg0 = 0,
                         std::uint64_t arg1 = 0)
    {
        switch (kind) {
          case EventKind::TlbHit: ++counters_.tlbHits; break;
          case EventKind::TlbMiss: ++counters_.tlbMisses; break;
          case EventKind::TlbTagReject:
            counters_.taggedLookupRejects += arg0;
            break;
          case EventKind::TlbFlush: ++counters_.tlbFlushes; break;
          case EventKind::TlbFlushAvoided: ++counters_.flushesAvoided; break;
          case EventKind::ClosureCacheHit: ++counters_.closureCacheHits; break;
          case EventKind::ClosureCacheMiss:
            ++counters_.closureCacheMisses;
            break;
          case EventKind::NestedCheck: ++counters_.nestedChecks; break;
          case EventKind::AccessFault: ++counters_.accessFaults; break;
          case EventKind::DataPath:
            counters_.llcHitLines += arg0;
            counters_.meeLines += arg1;
            break;
          case EventKind::AexTaken: ++counters_.aexCount; break;
          case EventKind::Ipi: ++counters_.ipiCount; break;
          case EventKind::OsVictimPick: ++counters_.victimPicks; break;
          case EventKind::ServeShed: counters_.serveSheds += arg1; break;
          case EventKind::ServeBatchEnd:
            ++counters_.serveBatches;
            counters_.serveBatchedRequests += arg1;
            break;
          case EventKind::ServeTenantEvict:
            ++counters_.serveTenantEvictions;
            break;
          case EventKind::ServeTenantReload:
            ++counters_.serveTenantReloads;
            break;
          case EventKind::FaultInjected: ++counters_.faultsInjected; break;
          case EventKind::ServeRetry: ++counters_.serveRetries; break;
          case EventKind::ServeTenantRebuild:
            ++counters_.serveTenantRebuilds;
            break;
          case EventKind::ServeTenantMigrate:
            ++counters_.serveTenantMigrations;
            break;
          case EventKind::ServeBreakerOpen:
            ++counters_.serveBreakerOpens;
            break;
          case EventKind::ServeBreakerClose:
            ++counters_.serveBreakerCloses;
            break;
          case EventKind::ServeWatermarkMiss:
            ++counters_.serveWatermarkMisses;
            break;
          case EventKind::SwitchlessPost: ++counters_.switchlessPosts; break;
          case EventKind::SwitchlessDrain: ++counters_.switchlessDrains; break;
          case EventKind::SwitchlessFallback:
            ++counters_.switchlessFallbacks;
            break;
          case EventKind::SwitchlessPoll: ++counters_.switchlessPolls; break;
          case EventKind::SwitchlessRefuse:
            ++counters_.switchlessRefusals;
            break;
          case EventKind::SuperviseWedge: ++counters_.superviseWedges; break;
          case EventKind::SuperviseEscalate:
            ++counters_.superviseEscalations;
            break;
          case EventKind::SuperviseEvacuate:
            ++counters_.superviseEvacuations;
            break;
          case EventKind::ServeWrongEpoch:
            ++counters_.serveWrongEpochs;
            break;
          default: break;
        }
    }

    /** Counter fold for successful leaf exits (same fast-path contract). */
    void accumulateLeafExit(Leaf leaf, std::uint16_t code)
    {
        if (code != 0) return;
        switch (leaf) {
          case Leaf::Eenter: ++counters_.eenterCount; break;
          case Leaf::Eexit: ++counters_.eexitCount; break;
          case Leaf::Neenter: ++counters_.neenterCount; break;
          case Leaf::Neexit: ++counters_.neexitCount; break;
          case Leaf::Eresume: ++counters_.eresumeCount; break;
          default: break;
        }
    }

    /** Folds one event into the counters (the non-virtual hot path). */
    void accumulate(const TraceEvent& event)
    {
        if (event.kind == EventKind::LeafExit) {
            accumulateLeafExit(event.leaf, event.code);
        } else {
            accumulateLight(event.kind, event.arg0, event.arg1);
        }
    }

  private:
    StatsCounters counters_;
};

}  // namespace nesgx::trace
