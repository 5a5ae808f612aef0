#include "trace/export.hpp"

#include <string>

#include "common/json_escape.hpp"
#include "isa/opcodes.hpp"

namespace adres {

const char* traceEventKindName(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kModeSwitch: return "mode_switch";
    case TraceEventKind::kKernel: return "kernel";
    case TraceEventKind::kFuActive: return "fu_active";
    case TraceEventKind::kVliwOp: return "vliw_op";
    case TraceEventKind::kVliwStall: return "vliw_stall";
    case TraceEventKind::kCgaStall: return "cga_stall";
    case TraceEventKind::kICacheMiss: return "icache_miss";
    case TraceEventKind::kL1Conflict: return "l1_conflict";
    case TraceEventKind::kDmaTransfer: return "dma_transfer";
    case TraceEventKind::kAhbRead: return "ahb_read";
    case TraceEventKind::kAhbWrite: return "ahb_write";
    case TraceEventKind::kRegionEnter: return "region_enter";
    case TraceEventKind::kRegionExit: return "region";
    case TraceEventKind::kHalt: return "halt";
    case TraceEventKind::kResume: return "resume";
  }
  return "?";
}

const char* stallCauseName(StallCause c) {
  switch (c) {
    case StallCause::kHazard: return "hazard";
    case StallCause::kICacheMiss: return "icache_miss";
    case StallCause::kDrain: return "drain";
    case StallCause::kL1Contention: return "l1_contention";
  }
  return "?";
}

}  // namespace adres

namespace adres::trace {
namespace {

std::string lookup(const std::vector<std::string>& names, u32 idx,
                   const char* fallbackPrefix) {
  if (idx < names.size() && !names[idx].empty()) return names[idx];
  return std::string(fallbackPrefix) + std::to_string(idx);
}

int tidOf(const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kVliwOp:
    case TraceEventKind::kVliwStall:
      return e.kind == TraceEventKind::kVliwOp ? tid::kVliwSlot0 + e.track
                                               : tid::kCore;
    case TraceEventKind::kFuActive:
      return tid::kCgaFu0 + e.track;
    case TraceEventKind::kL1Conflict:
      return tid::kL1Bank0 + e.track;
    case TraceEventKind::kICacheMiss:
      return tid::kICache;
    case TraceEventKind::kDmaTransfer:
      return tid::kDma;
    case TraceEventKind::kAhbRead:
    case TraceEventKind::kAhbWrite:
      return tid::kAhb;
    default:
      return tid::kCore;
  }
}

std::string nameOf(const TraceEvent& e, const TraceNames& names) {
  switch (e.kind) {
    case TraceEventKind::kModeSwitch:
      return e.a == 0 ? "vliw->cga" : "cga->vliw";
    case TraceEventKind::kKernel:
      return lookup(names.kernels, e.a, "kernel");
    case TraceEventKind::kFuActive:
      return lookup(names.kernels, e.a, "kernel");
    case TraceEventKind::kVliwOp:
      if (e.a < static_cast<u32>(kOpcodeCount))
        return std::string(opInfo(static_cast<Opcode>(e.a)).name);
      return "op" + std::to_string(e.a);
    case TraceEventKind::kVliwStall:
    case TraceEventKind::kCgaStall:
      return std::string("stall:") +
             stallCauseName(static_cast<StallCause>(e.a));
    case TraceEventKind::kICacheMiss:
      return "I$ miss";
    case TraceEventKind::kL1Conflict:
      return "bank conflict";
    case TraceEventKind::kDmaTransfer:
      return "dma";
    case TraceEventKind::kAhbRead:
      return "ahb read";
    case TraceEventKind::kAhbWrite:
      return "ahb write";
    case TraceEventKind::kRegionEnter:
      return "enter " + lookup(names.regions, e.a, "region");
    case TraceEventKind::kRegionExit:
      return lookup(names.regions, e.a, "region");
    case TraceEventKind::kHalt:
      return "halt";
    case TraceEventKind::kResume:
      return "resume";
  }
  return "?";
}

void writeThreadName(std::ostream& os, int tidNum, const std::string& name,
                     bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << tidNum
     << R"(,"args":{"name":")" << json::escape(name) << R"("}})";
}

}  // namespace

void writeChromeTrace(const std::vector<TraceEvent>& events, std::ostream& os,
                      const TraceNames& names, double cyclePeriodUs) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  writeThreadName(os, tid::kCore, "core", first);
  for (int s = 0; s < 3; ++s)
    writeThreadName(os, tid::kVliwSlot0 + s, "vliw.slot" + std::to_string(s),
                    first);
  for (int fu = 0; fu < 16; ++fu)
    writeThreadName(os, tid::kCgaFu0 + fu,
                    "cga.fu" + std::string(fu < 10 ? "0" : "") +
                        std::to_string(fu),
                    first);
  for (int b = 0; b < 4; ++b)
    writeThreadName(os, tid::kL1Bank0 + b, "l1.bank" + std::to_string(b),
                    first);
  writeThreadName(os, tid::kICache, "icache", first);
  writeThreadName(os, tid::kDma, "dma", first);
  writeThreadName(os, tid::kAhb, "ahb", first);

  for (const TraceEvent& e : events) {
    os << ",\n";
    const bool span = e.dur > 0;
    os << "{\"name\":\"" << json::escape(nameOf(e, names)) << "\",\"ph\":\""
       << (span ? 'X' : 'i') << "\",\"ts\":"
       << static_cast<double>(e.cycle) * cyclePeriodUs;
    if (span) os << ",\"dur\":" << static_cast<double>(e.dur) * cyclePeriodUs;
    if (!span) os << ",\"s\":\"t\"";  // thread-scoped instant
    os << ",\"pid\":1,\"tid\":" << tidOf(e) << ",\"args\":{\"cycle\":"
       << e.cycle << ",\"dur_cycles\":" << e.dur << ",\"kind\":\""
       << traceEventKindName(e.kind) << "\",\"a\":" << e.a << ",\"b\":" << e.b
       << "}}";
  }
  os << "\n]}\n";
}

}  // namespace adres::trace
