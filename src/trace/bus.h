/**
 * TraceBus: the publication point every model layer emits through.
 *
 * Two-tier dispatch keeps observability free when unused:
 *  1. A built-in StatsSink is updated by a direct (non-virtual, inlined)
 *     `accumulate` call on every publish — this is how `Machine::Stats`
 *     keeps working as a plain counter view.
 *  2. External sinks (ring buffer, Chrome trace, test counters) hang off
 *     a subscriber list; the virtual fan-out is reached only behind an
 *     `!sinks_.empty()` branch, so the no-subscriber hot path never pays
 *     an indirect call.
 *
 * One delivery path for every thread count: sinks are called inline,
 * under one bus-owned mutex taken only behind that branch, so worker
 * threads publishing at once never call a sink concurrently. It is the
 * innermost lock — a sink must not publish, log or take any other lock
 * that a publisher may hold. Subscribe and unsubscribe only while no
 * worker thread runs.
 *
 * Events are stamped with the simulated-clock time at publish; the bus
 * never advances the clock, so attaching sinks cannot perturb modelled
 * timing or statistics.
 */
#pragma once

#include <mutex>
#include <vector>

#include "hw/sim_clock.h"
#include "trace/event.h"
#include "trace/sink.h"
#include "trace/stats.h"

namespace nesgx::trace {

class TraceBus {
  public:
    TraceBus() = default;
    ~TraceBus();

    TraceBus(const TraceBus&) = delete;
    TraceBus& operator=(const TraceBus&) = delete;

    /** Clock used to stamp `TraceEvent::time` (may be null: time 0). */
    void setClock(const hw::SimClock* clock) { clock_ = clock; }

    /** True when at least one external sink is attached. */
    bool active() const { return !sinks_.empty(); }

    StatsCounters& counters() { return stats_.counters(); }
    const StatsCounters& counters() const { return stats_.counters(); }
    void resetCounters() { stats_.reset(); }

    /** Attaches a sink (no ownership taken). Duplicate attach is a no-op. */
    void subscribe(TraceSink* sink);

    /** Detaches a sink; unknown sinks are ignored. */
    void unsubscribe(TraceSink* sink);

    std::size_t sinkCount() const { return sinks_.size(); }

    /** Publishes one event: counters always, subscribers when attached.
     *  The time stamp only exists for subscribers, so it is taken behind
     *  the sink branch — the counter-only path never reads the clock. */
    void publish(TraceEvent event)
    {
        stats_.accumulate(event);
        if (!sinks_.empty()) {
            if (clock_) event.time = clock_->cycles();
            dispatch(event);
        }
    }

    /**
     * Hot-path emission for counter-mapped kinds: with no sinks attached
     * this is a branch and a counter bump — no TraceEvent is built at
     * all. Use it at per-access/per-transition sites; rare events with
     * extra payload (code, text) go through `publish`.
     */
    void publishLight(EventKind kind, hw::CoreId core, std::uint64_t eid,
                      std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
    {
        if (sinks_.empty()) {
            countLight(kind, arg0, arg1);
            return;
        }
        TraceEvent event;
        event.kind = kind;
        event.core = core;
        event.eid = eid;
        event.arg0 = arg0;
        event.arg1 = arg1;
        publish(event);
    }

    /** Counter-free kinds (LeafEnter, OS/SDK Begin markers) can skip the
     *  event construction entirely when nobody listens. */
    void publishIfActive(const TraceEvent& event)
    {
        if (!sinks_.empty()) publish(event);
    }

    void leafEnter(Leaf leaf, hw::CoreId core, std::uint64_t eid,
                   std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
    {
        if (sinks_.empty()) return;  // enters bump no counters
        TraceEvent event;
        event.kind = EventKind::LeafEnter;
        event.leaf = leaf;
        event.core = core;
        event.eid = eid;
        event.arg0 = arg0;
        event.arg1 = arg1;
        publish(event);
    }

    void leafExit(Leaf leaf, hw::CoreId core, std::uint64_t eid, Status status,
                  std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
    {
        if (sinks_.empty()) {  // exits only feed the transition counters
            stats_.accumulateLeafExit(leaf, std::uint16_t(status.code()));
            return;
        }
        TraceEvent event;
        event.kind = EventKind::LeafExit;
        event.leaf = leaf;
        event.code = std::uint16_t(status.code());
        event.core = core;
        event.eid = eid;
        event.arg0 = arg0;
        event.arg1 = arg1;
        publish(event);
    }

    /** Counter bump alone — for call sites that gate on `active()`
     *  themselves because even assembling the operands costs something. */
    void countLight(EventKind kind, std::uint64_t arg0 = 0,
                    std::uint64_t arg1 = 0)
    {
        stats_.accumulateLight(kind, arg0, arg1);
    }

    /** Counter-only form of `leafExit` (see countLight). */
    void countLeafExit(Leaf leaf, Status status)
    {
        stats_.accumulateLeafExit(leaf, std::uint16_t(status.code()));
    }

    /**
     * Routes Warn/Error lines from the global logger into this bus as
     * LogWarn/LogError events (satellite of the logging layer). Only one
     * bus captures the logger at a time; the destructor releases it.
     */
    void captureLog();
    void releaseLog();

  private:
    void dispatch(const TraceEvent& event);

    const hw::SimClock* clock_ = nullptr;
    StatsSink stats_;
    std::vector<TraceSink*> sinks_;
    /** Serialises sink calls across publishing threads (see above). */
    std::mutex sinkM_;
};

}  // namespace nesgx::trace
