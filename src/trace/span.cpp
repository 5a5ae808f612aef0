#include "trace/span.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "common/json_escape.hpp"

namespace adres::trace {

const char* spanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kPacket: return "packet";
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kDispatch: return "dispatch";
    case SpanKind::kDecode: return "decode";
    case SpanKind::kRegion: return "region";
  }
  return "?";
}

const Span* PacketSpans::find(SpanKind kind) const {
  for (const Span& s : spans)
    if (s.kind == kind) return &s;
  return nullptr;
}

double PacketSpans::queueWaitUs() const {
  const Span* s = find(SpanKind::kQueueWait);
  return s ? s->durUs : 0.0;
}

double PacketSpans::decodeUs() const {
  const Span* s = find(SpanKind::kDecode);
  return s ? s->durUs : 0.0;
}

u64 packetTraceId(u64 jobId, u32 tag) {
  const u64 id = hashCombine(mix64(jobId + 1), tag);
  return id ? id : 1;
}

std::string traceIdHex(u64 id) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[id & 0xf];
    id >>= 4;
  }
  return out;
}

PacketSpans buildPacketSpans(u64 jobId, u32 tag, int worker, double enqueueUs,
                             double dispatchUs, double decodeStartUs,
                             double decodeEndUs, u64 decodeCycles,
                             const std::vector<RegionSpan>& regionLog,
                             const std::vector<std::string>& regionNames) {
  PacketSpans ps;
  ps.traceId = packetTraceId(jobId, tag);
  ps.jobId = jobId;
  ps.worker = worker;
  ps.tag = tag;

  dispatchUs = std::max(dispatchUs, enqueueUs);
  decodeStartUs = std::max(decodeStartUs, dispatchUs);
  decodeEndUs = std::max(decodeEndUs, decodeStartUs);

  Span packet;
  packet.kind = SpanKind::kPacket;
  packet.name = "packet";
  packet.startUs = enqueueUs;
  packet.durUs = decodeEndUs - enqueueUs;
  packet.cycles = decodeCycles;
  ps.spans.push_back(packet);

  Span wait;
  wait.kind = SpanKind::kQueueWait;
  wait.name = "queue_wait";
  wait.startUs = enqueueUs;
  wait.durUs = dispatchUs - enqueueUs;
  ps.spans.push_back(wait);

  Span dispatch;
  dispatch.kind = SpanKind::kDispatch;
  dispatch.name = "dispatch";
  dispatch.startUs = dispatchUs;
  dispatch.durUs = decodeStartUs - dispatchUs;
  ps.spans.push_back(dispatch);

  Span decode;
  decode.kind = SpanKind::kDecode;
  decode.name = "decode";
  decode.startUs = decodeStartUs;
  decode.durUs = decodeEndUs - decodeStartUs;
  decode.cycles = decodeCycles;
  ps.spans.push_back(decode);

  // Region children: simulated cycle offsets mapped linearly into the decode
  // host window so nested bars render sensibly in the Chrome trace viewer.
  const double usPerCycle =
      decodeCycles ? decode.durUs / static_cast<double>(decodeCycles) : 0.0;
  for (const RegionSpan& r : regionLog) {
    Span s;
    s.kind = SpanKind::kRegion;
    s.name = regionName(regionNames, r.region);
    s.startCycle = r.startCycle;
    s.cycles = r.endCycle - r.startCycle;
    s.ops = r.ops;
    s.startUs =
        decodeStartUs + static_cast<double>(r.startCycle) * usPerCycle;
    s.durUs = static_cast<double>(s.cycles) * usPerCycle;
    ps.spans.push_back(s);
  }
  return ps;
}

void writeSpansChromeTrace(const std::vector<PacketSpans>& packets,
                           std::ostream& os) {
  constexpr int kPid = 2;  // pid 1 is the cycle-level core trace exporter
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kPid
     << ",\"tid\":0,\"args\":{\"name\":\"adres packet farm\"}}";
  std::vector<int> workers;
  for (const PacketSpans& p : packets)
    if (std::find(workers.begin(), workers.end(), p.worker) == workers.end())
      workers.push_back(p.worker);
  std::sort(workers.begin(), workers.end());
  for (const int w : workers) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kPid
       << ",\"tid\":" << w << ",\"args\":{\"name\":\"worker " << w << "\"}}";
  }
  for (const PacketSpans& p : packets) {
    for (const Span& s : p.spans) {
      os << ",\n{\"name\":\"" << json::escape(s.name) << "\",\"cat\":\""
         << spanKindName(s.kind) << "\",\"ph\":\"X\",\"pid\":" << kPid
         << ",\"tid\":" << p.worker << ",\"ts\":" << s.startUs
         << ",\"dur\":" << s.durUs << ",\"args\":{\"trace_id\":\""
         << traceIdHex(p.traceId) << "\",\"job\":" << p.jobId
         << ",\"tag\":" << p.tag << ",\"cycles\":" << s.cycles
         << ",\"ops\":" << s.ops << "}}";
    }
  }
  os << "\n]}\n";
}

}  // namespace adres::trace
