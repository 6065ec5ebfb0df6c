#include "trace/event.h"

#include <sstream>

namespace nesgx::trace {

const char*
kindName(EventKind kind)
{
    switch (kind) {
      case EventKind::LeafEnter: return "LeafEnter";
      case EventKind::LeafExit: return "LeafExit";
      case EventKind::TlbHit: return "TlbHit";
      case EventKind::TlbMiss: return "TlbMiss";
      case EventKind::TlbTagReject: return "TlbTagReject";
      case EventKind::TlbFlush: return "TlbFlush";
      case EventKind::TlbFlushAvoided: return "TlbFlushAvoided";
      case EventKind::TlbInvalidatePage: return "TlbInvalidatePage";
      case EventKind::TlbInvalidateSecs: return "TlbInvalidateSecs";
      case EventKind::TlbEvict: return "TlbEvict";
      case EventKind::ClosureCacheHit: return "ClosureCacheHit";
      case EventKind::ClosureCacheMiss: return "ClosureCacheMiss";
      case EventKind::NestedCheck: return "NestedCheck";
      case EventKind::AccessFault: return "AccessFault";
      case EventKind::DataPath: return "DataPath";
      case EventKind::AexTaken: return "AexTaken";
      case EventKind::Ipi: return "Ipi";
      case EventKind::SdkEcallBegin: return "SdkEcallBegin";
      case EventKind::SdkEcallEnd: return "SdkEcallEnd";
      case EventKind::SdkOcallBegin: return "SdkOcallBegin";
      case EventKind::SdkOcallEnd: return "SdkOcallEnd";
      case EventKind::SdkNEcallBegin: return "SdkNEcallBegin";
      case EventKind::SdkNEcallEnd: return "SdkNEcallEnd";
      case EventKind::SdkNOcallBegin: return "SdkNOcallBegin";
      case EventKind::SdkNOcallEnd: return "SdkNOcallEnd";
      case EventKind::OsSchedule: return "OsSchedule";
      case EventKind::OsEvictBegin: return "OsEvictBegin";
      case EventKind::OsEvictEnd: return "OsEvictEnd";
      case EventKind::OsReloadBegin: return "OsReloadBegin";
      case EventKind::OsReloadEnd: return "OsReloadEnd";
      case EventKind::OsDestroyBegin: return "OsDestroyBegin";
      case EventKind::OsDestroyEnd: return "OsDestroyEnd";
      case EventKind::OsVictimPick: return "OsVictimPick";
      case EventKind::ServeEnqueue: return "ServeEnqueue";
      case EventKind::ServeShed: return "ServeShed";
      case EventKind::ServeBatchBegin: return "ServeBatchBegin";
      case EventKind::ServeBatchEnd: return "ServeBatchEnd";
      case EventKind::ServeTenantEvict: return "ServeTenantEvict";
      case EventKind::ServeTenantReload: return "ServeTenantReload";
      case EventKind::FaultInjected: return "FaultInjected";
      case EventKind::ServeRetry: return "ServeRetry";
      case EventKind::ServeTenantRebuild: return "ServeTenantRebuild";
      case EventKind::ServeBreakerOpen: return "ServeBreakerOpen";
      case EventKind::ServeBreakerClose: return "ServeBreakerClose";
      case EventKind::ServeWatermarkMiss: return "ServeWatermarkMiss";
      case EventKind::SwitchlessPost: return "SwitchlessPost";
      case EventKind::SwitchlessDrain: return "SwitchlessDrain";
      case EventKind::SwitchlessFallback: return "SwitchlessFallback";
      case EventKind::SwitchlessPoll: return "SwitchlessPoll";
      case EventKind::LogWarn: return "LogWarn";
      case EventKind::LogError: return "LogError";
      case EventKind::ServeTenantMigrate: return "ServeTenantMigrate";
      case EventKind::SuperviseWedge: return "SuperviseWedge";
      case EventKind::SuperviseEscalate: return "SuperviseEscalate";
      case EventKind::SuperviseEvacuate: return "SuperviseEvacuate";
      case EventKind::ServeWrongEpoch: return "ServeWrongEpoch";
      case EventKind::SwitchlessRefuse: return "SwitchlessRefuse";
    }
    return "?";
}

const char*
leafName(Leaf leaf)
{
    switch (leaf) {
      case Leaf::None: return "-";
      case Leaf::Ecreate: return "ECREATE";
      case Leaf::Eadd: return "EADD";
      case Leaf::Eextend: return "EEXTEND";
      case Leaf::Einit: return "EINIT";
      case Leaf::Eremove: return "EREMOVE";
      case Leaf::Nasso: return "NASSO";
      case Leaf::Eblock: return "EBLOCK";
      case Leaf::Etrack: return "ETRACK";
      case Leaf::Ewb: return "EWB";
      case Leaf::Eldu: return "ELDU";
      case Leaf::Eenter: return "EENTER";
      case Leaf::Eexit: return "EEXIT";
      case Leaf::Neenter: return "NEENTER";
      case Leaf::Neexit: return "NEEXIT";
      case Leaf::Aex: return "AEX";
      case Leaf::Eresume: return "ERESUME";
      case Leaf::Ereport: return "EREPORT";
      case Leaf::Nereport: return "NEREPORT";
      case Leaf::Egetkey: return "EGETKEY";
    }
    return "?";
}

std::string
formatEvent(const TraceEvent& event, const std::string& text)
{
    std::ostringstream os;
    os << "[" << event.time << "] ";
    if (event.core == kNoCore) {
        os << "core=-";
    } else {
        os << "core=" << event.core;
    }
    os << " " << kindName(event.kind);
    if (event.leaf != Leaf::None) os << " " << leafName(event.leaf);
    if (event.kind == EventKind::LeafExit || event.code != 0) {
        os << " status=" << Status(Err(event.code)).name();
    }
    if (event.eid != 0) os << " eid=" << event.eid;
    if (event.arg0 != 0) os << std::hex << " a0=0x" << event.arg0 << std::dec;
    if (event.arg1 != 0) os << std::hex << " a1=0x" << event.arg1 << std::dec;
    if (!text.empty()) {
        os << " \"" << text << "\"";
    } else if (event.text) {
        os << " \"" << event.text << "\"";
    }
    return os.str();
}

}  // namespace nesgx::trace
