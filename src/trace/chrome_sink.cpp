#include "trace/chrome_sink.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace nesgx::trace {

namespace {

/** tid used for events with no core context (ENCLS / log lines). */
constexpr std::uint32_t kOsTid = 1000;

std::string
escapeJson(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (std::uint8_t(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
statusArgs(const TraceEvent& event)
{
    std::ostringstream os;
    os << "\"status\": \"" << Status(Err(event.code)).name() << "\"";
    if (event.eid != 0) os << ", \"eid\": " << event.eid;
    return os.str();
}

bool
isMemoryKind(EventKind kind)
{
    switch (kind) {
      case EventKind::TlbHit:
      case EventKind::TlbMiss:
      case EventKind::DataPath:
      case EventKind::NestedCheck:
      case EventKind::ClosureCacheHit:
      case EventKind::ClosureCacheMiss:
        return true;
      default:
        return false;
    }
}

const char*
spanName(EventKind kind)
{
    switch (kind) {
      case EventKind::SdkEcallBegin:
      case EventKind::SdkEcallEnd: return "ecall";
      case EventKind::SdkOcallBegin:
      case EventKind::SdkOcallEnd: return "ocall";
      case EventKind::SdkNEcallBegin:
      case EventKind::SdkNEcallEnd: return "n_ecall";
      case EventKind::SdkNOcallBegin:
      case EventKind::SdkNOcallEnd: return "n_ocall";
      case EventKind::OsEvictBegin:
      case EventKind::OsEvictEnd: return "os.evict";
      case EventKind::OsReloadBegin:
      case EventKind::OsReloadEnd: return "os.reload";
      case EventKind::OsDestroyBegin:
      case EventKind::OsDestroyEnd: return "os.destroy";
      case EventKind::ServeBatchBegin:
      case EventKind::ServeBatchEnd: return "serve.batch";
      default: return nullptr;
    }
}

bool
isBeginKind(EventKind kind)
{
    switch (kind) {
      case EventKind::SdkEcallBegin:
      case EventKind::SdkOcallBegin:
      case EventKind::SdkNEcallBegin:
      case EventKind::SdkNOcallBegin:
      case EventKind::OsEvictBegin:
      case EventKind::OsReloadBegin:
      case EventKind::OsDestroyBegin:
      case EventKind::ServeBatchBegin:
        return true;
      default:
        return false;
    }
}

}  // namespace

ChromeTraceSink::ChromeTraceSink(double cyclesPerMicro,
                                 bool includeMemoryEvents)
    : cyclesPerMicro_(cyclesPerMicro <= 0 ? 1.0 : cyclesPerMicro),
      includeMemoryEvents_(includeMemoryEvents)
{
}

void
ChromeTraceSink::add(char phase, std::string name, const TraceEvent& event,
                     std::string args)
{
    Entry entry;
    entry.phase = phase;
    entry.name = std::move(name);
    entry.tid = event.core == kNoCore ? kOsTid : event.core;
    entry.ts = double(event.time) / cyclesPerMicro_;
    entry.args = std::move(args);
    entries_.push_back(std::move(entry));
}

void
ChromeTraceSink::onEvent(const TraceEvent& event)
{
    if (!includeMemoryEvents_ && isMemoryKind(event.kind)) return;

    switch (event.kind) {
      case EventKind::LeafEnter:
        add('B', leafName(event.leaf), event);
        return;
      case EventKind::LeafExit:
        add('E', leafName(event.leaf), event, statusArgs(event));
        return;
      case EventKind::LogWarn:
      case EventKind::LogError: {
        std::string msg = event.text ? event.text : "";
        add('i', kindName(event.kind), event,
            "\"message\": \"" + escapeJson(msg) + "\"");
        return;
      }
      case EventKind::SwitchlessRefuse:
        add('i', kindName(event.kind), event,
            "\"ring\": " + std::to_string(event.arg0) +
                ", \"claimed\": " + std::to_string(event.arg1));
        return;
      default:
        break;
    }

    if (const char* span = spanName(event.kind)) {
        std::string name = span;
        if (event.text) {
            name += ": ";
            name += event.text;  // write() escapes names; don't double up
        }
        if (isBeginKind(event.kind)) {
            add('B', std::move(name), event);
        } else {
            add('E', std::move(name), event, statusArgs(event));
        }
        return;
    }

    // Everything else: sparse instant markers (AEX, IPI, flushes, ...).
    add('i', kindName(event.kind), event);
}

void
ChromeTraceSink::write(std::ostream& os) const
{
    os.precision(15);  // μs timestamps must not collapse at long runtimes
    os << "{\"traceEvents\": [\n";
    bool first = true;
    auto emitMeta = [&](std::uint32_t tid, const std::string& label) {
        if (!first) os << ",\n";
        first = false;
        os << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           << "\"tid\": " << tid << ", \"args\": {\"name\": \"" << label
           << "\"}}";
    };
    // Name the tracks that actually appear.
    bool sawOs = false;
    std::uint32_t maxCore = 0;
    bool sawCore = false;
    for (const Entry& e : entries_) {
        if (e.tid == kOsTid) {
            sawOs = true;
        } else {
            sawCore = true;
            if (e.tid > maxCore) maxCore = e.tid;
        }
    }
    if (sawCore) {
        for (std::uint32_t c = 0; c <= maxCore; ++c) {
            emitMeta(c, "core " + std::to_string(c));
        }
    }
    if (sawOs) emitMeta(kOsTid, "os (ENCLS)");

    for (const Entry& e : entries_) {
        if (!first) os << ",\n";
        first = false;
        os << "  {\"name\": \"" << escapeJson(e.name) << "\", \"ph\": \""
           << e.phase << "\", \"pid\": 1, \"tid\": " << e.tid
           << ", \"ts\": " << e.ts;
        if (e.phase == 'i') os << ", \"s\": \"t\"";
        if (!e.args.empty()) os << ", \"args\": {" << e.args << "}";
        os << "}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

std::string
ChromeTraceSink::json() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

bool
ChromeTraceSink::writeFile(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) return false;
    write(out);
    return bool(out);
}

}  // namespace nesgx::trace
