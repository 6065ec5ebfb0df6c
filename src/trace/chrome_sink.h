/**
 * ChromeTraceSink: renders the event stream as chrome://tracing (and
 * Perfetto "legacy JSON") trace events on the simulated-clock timeline.
 *
 * Mapping:
 *  - LeafEnter/LeafExit and the SDK/OS Begin/End pairs become duration
 *    events ("B"/"E") on a per-core track (tid = core id; ENCLS leaves
 *    with no core context share an "os" track).
 *  - Sparse point events (AEX, IPI, tag rejects, flushes, faults, log
 *    lines, refused ring headers) become instant events ("i"); a
 *    SwitchlessRefuse carries its ring and claimed count as args.
 *  - Per-access kinds (TLB hit/miss, data-path, nested checks) are
 *    skipped by default — on a memory-bound bench they dominate the
 *    stream a thousand to one; construct with includeMemoryEvents=true
 *    to keep them.
 *
 * Timestamps are microseconds: sim-clock cycles / (frequency-in-MHz).
 */
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "trace/event.h"
#include "trace/sink.h"

namespace nesgx::trace {

class ChromeTraceSink : public TraceSink {
  public:
    /** `cyclesPerMicro` converts sim-clock cycles to microseconds; pass
     *  `machine.clock().frequencyHz() / 1e6`. */
    explicit ChromeTraceSink(double cyclesPerMicro = 3600.0,
                             bool includeMemoryEvents = false);

    void onEvent(const TraceEvent& event) override;

    std::size_t eventCount() const { return entries_.size(); }

    /** Serializes `{"traceEvents": [...]}` (valid JSON, parseable by
     *  chrome://tracing, Perfetto and `python3 -m json.tool`). */
    void write(std::ostream& os) const;
    std::string json() const;
    bool writeFile(const std::string& path) const;

  private:
    struct Entry {
        char phase;          ///< 'B', 'E' or 'i'
        std::string name;
        std::uint32_t tid;
        double ts;           ///< microseconds
        std::string args;    ///< pre-rendered JSON object body ("" = none)
    };

    void add(char phase, std::string name, const TraceEvent& event,
             std::string args = std::string());

    double cyclesPerMicro_;
    bool includeMemoryEvents_;
    std::vector<Entry> entries_;
};

}  // namespace nesgx::trace
