#include "trace/bus.h"

#include <algorithm>

#include "support/logging.h"

namespace nesgx::trace {

namespace {

void
forwardLogLine(void* ctx, LogLevel level, const char* msg)
{
    auto* bus = static_cast<TraceBus*>(ctx);
    TraceEvent event;
    event.kind =
        level == LogLevel::Error ? EventKind::LogError : EventKind::LogWarn;
    event.text = msg;
    bus->publish(event);
}

}  // namespace

TraceBus::~TraceBus()
{
    releaseLog();
}

void
TraceBus::subscribe(TraceSink* sink)
{
    if (!sink) return;
    if (std::find(sinks_.begin(), sinks_.end(), sink) != sinks_.end()) return;
    sinks_.push_back(sink);
}

void
TraceBus::unsubscribe(TraceSink* sink)
{
    sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink),
                 sinks_.end());
}

void
TraceBus::dispatch(const TraceEvent& event)
{
    std::lock_guard<std::mutex> g(sinkM_);
    for (TraceSink* sink : sinks_) {
        sink->onEvent(event);
    }
}

void
TraceBus::captureLog()
{
    setLogSink(&forwardLogLine, this);
}

void
TraceBus::releaseLog()
{
    clearLogSink(this);
}

}  // namespace nesgx::trace
