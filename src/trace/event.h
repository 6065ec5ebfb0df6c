/**
 * Typed trace events: the one vocabulary every layer of the model speaks.
 *
 * The hw, sgx, os and sdk layers publish these through a TraceBus
 * (bus.h) instead of mutating counters inline; statistics, the
 * orderliness checker's trace-level oracle rules, post-mortem ring
 * dumps and chrome://tracing exports are all *views* over the same
 * stream. Guardian (arXiv:2105.05962) validates enclave orderliness by
 * checking traces of leaf events; this is the model-side analogue.
 *
 * TraceEvent is deliberately a trivially-copyable value: when nothing
 * subscribes to the bus, emitting one must cost a branch and a counter
 * bump, not an allocation (`text` is a borrowed pointer that sinks copy
 * if they retain the event).
 */
#pragma once

#include <cstdint>
#include <string>

#include "hw/types.h"
#include "support/status.h"

namespace nesgx::trace {

/** Core id stamped on events with no core context (ENCLS runs as the
 *  OS; log lines have no core at all). */
constexpr hw::CoreId kNoCore = 0xffffffffu;

/** What happened. Kinds map 1:1 onto the counters of StatsCounters
 *  where one exists (stats.h); the rest are trace-only. */
enum class EventKind : std::uint8_t {
    LeafEnter,          ///< ENCLS/ENCLU leaf invoked (`leaf` says which)
    LeafExit,           ///< leaf returned; `code` carries the Status
    TlbHit,             ///< translation served from TLB/L0 (-> tlbHits)
    TlbMiss,            ///< full Fig.-6 walk taken (-> tlbMisses)
    TlbTagReject,       ///< VPN present, wrong context tag (`arg0` count)
    TlbFlush,           ///< full per-core flush (-> tlbFlushes)
    TlbFlushAvoided,    ///< tagged transition skipped the flush
    TlbInvalidatePage,  ///< selective shootdown by physical frame
    TlbInvalidateSecs,  ///< selective shootdown by context tag
    TlbEvict,           ///< capacity (FIFO) eviction of one entry
    ClosureCacheHit,    ///< memoized outer-closure served
    ClosureCacheMiss,   ///< outer-closure BFS recomputed
    NestedCheck,        ///< one outer-chain node visited during validation
    AccessFault,        ///< access-validation flow refused the access
    DataPath,           ///< memory-hierarchy charge: `arg0` LLC-hit lines,
                        ///< `arg1` MEE lines
    AexTaken,           ///< AEX accounted (`arg0` = TCS the nest saved to;
                        ///< 0 on the fail-closed null-TCS path)
    Ipi,                ///< shootdown IPI delivered to `core`
    SdkEcallBegin,      ///< Urts ecall dispatch (text = call name)
    SdkEcallEnd,
    SdkOcallBegin,      ///< enclave -> untrusted ocall boundary
    SdkOcallEnd,
    SdkNEcallBegin,     ///< outer -> inner n_ecall boundary
    SdkNEcallEnd,
    SdkNOcallBegin,     ///< inner -> outer n_ocall boundary
    SdkNOcallEnd,
    OsSchedule,         ///< kernel context switch on `core`
    OsEvictBegin,       ///< kernel eviction protocol (EBLOCK..EWB)
    OsEvictEnd,
    OsReloadBegin,      ///< kernel ELDU reload of an evicted page
    OsReloadEnd,
    OsDestroyBegin,     ///< kernel enclave teardown
    OsDestroyEnd,
    OsVictimPick,       ///< kernel eviction-victim selection (`arg0` =
                        ///< chosen SECS PA, `arg1` = its last-use tick)
    ServeEnqueue,       ///< request admitted (`arg0` tenant, `arg1` depth)
    ServeShed,          ///< deadline/backpressure drops (`arg0` tenant,
                        ///< `arg1` = dropped count)
    ServeBatchBegin,    ///< one batched dispatch (`arg0` tenant,
                        ///< `arg1` = batch size)
    ServeBatchEnd,
    ServeTenantEvict,   ///< pressure manager evicted a tenant's inner
                        ///< (`arg0` tenant, `arg1` = pages written back)
    ServeTenantReload,  ///< cold-start reload (`arg0` tenant,
                        ///< `arg1` = pages reloaded)
    FaultInjected,      ///< armed FaultInjector fired (`arg0` =
                        ///< fault::FaultSite, `arg1` = per-site hit count)
    ServeRetry,         ///< transient dispatch failure redispatched
                        ///< (`arg0` tenant, `arg1` = attempt number)
    ServeTenantRebuild, ///< poisoned inner destroyed + rebuilt
                        ///< (`arg0` tenant, `arg1` = lifetime rebuilds)
    ServeBreakerOpen,   ///< circuit breaker opened (`arg0` tenant,
                        ///< `arg1` = consecutive failures)
    ServeBreakerClose,  ///< half-open probe succeeded (`arg0` tenant)
    ServeWatermarkMiss, ///< EPC watermark unmet after relieve (`arg0` =
                        ///< wanted pages, `arg1` = free pages)
    SwitchlessPost,     ///< descriptor pushed into a switchless ring
                        ///< (`arg0` = ring id, `arg1` = slot sequence)
    SwitchlessDrain,    ///< descriptor popped by the resident poller
                        ///< (`arg0` = ring id, `arg1` = slot sequence)
    SwitchlessFallback, ///< ring abandoned: classic-path fallback or
                        ///< teardown poisoning (`arg0` = ring id,
                        ///< `arg1` = entries discarded)
    SwitchlessPoll,     ///< one ring-header poll by a parked core
                        ///< (`arg0` = ring id)
    LogWarn,            ///< model warning routed off the logger
    LogError,           ///< model error routed off the logger
    ServeTenantMigrate, ///< live tenant relocated (`arg0` tenant,
                        ///< `arg1` = 0 gateway move / 1 host move)
    SuperviseWedge,     ///< supervisor flagged a wedged tenant (`arg0`
                        ///< tenant, `arg1` = supervise::WedgeReason)
    SuperviseEscalate,  ///< supervisor climbed one ladder rung (`arg0`
                        ///< tenant, `arg1` = supervise::Rung taken)
    SuperviseEvacuate,  ///< supervisor evacuated a tenant (`arg0`
                        ///< tenant, `arg1` = 0 gateway hop / 1 host hop)
    ServeWrongEpoch,    ///< stale-epoch request refused with a typed
                        ///< redirect (`arg0` tenant, `arg1` = stale epoch)
    SwitchlessRefuse,   ///< pop refused an over-full ring header
                        ///< (`arg0` = ring id, `arg1` = tail - head)
};

constexpr std::size_t kEventKindCount =
    std::size_t(EventKind::SwitchlessRefuse) + 1;

/** Which leaf a LeafEnter/LeafExit refers to. */
enum class Leaf : std::uint8_t {
    None,
    // ENCLS
    Ecreate, Eadd, Eextend, Einit, Eremove, Nasso,
    Eblock, Etrack, Ewb, Eldu,
    // ENCLU
    Eenter, Eexit, Neenter, Neexit, Aex, Eresume,
    Ereport, Nereport, Egetkey,
};

constexpr std::size_t kLeafCount = std::size_t(Leaf::Egetkey) + 1;

/**
 * One event. `arg0`/`arg1` are kind-specific operands (documented per
 * kind above; for leaves, arg0 is the primary page operand — TCS PA for
 * transitions, EPC/SECS PA for lifecycle and paging leaves).
 */
struct TraceEvent {
    EventKind kind = EventKind::LeafEnter;
    Leaf leaf = Leaf::None;
    std::uint16_t code = 0;       ///< Err code (LeafExit / *End kinds)
    hw::CoreId core = kNoCore;
    std::uint64_t eid = 0;        ///< enclave id of the core's context
    std::uint64_t time = 0;       ///< sim-clock cycles (stamped by the bus)
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    /** Log/SDK-boundary payload. Borrowed: valid only during dispatch;
     *  sinks that retain events must copy it (RingBufferSink does). */
    const char* text = nullptr;

    Status status() const { return Status(Err(code)); }
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay POD: the no-subscriber fast path "
              "relies on emission compiling down to dead stores");

const char* kindName(EventKind kind);
const char* leafName(Leaf leaf);

/** One-line human-readable rendering (the ring-dump format). */
std::string formatEvent(const TraceEvent& event,
                        const std::string& text = std::string());

}  // namespace nesgx::trace
