// Per-packet span trees (DESIGN.md §13).
//
// Every RxJob gets a deterministic trace id; the farm records a span tree
// per packet — enqueue → queue-wait → dispatch → decode, with one child
// span per modem kernel region (from the Processor's region-span log, NOT
// a TraceSink, so the CGA steady-state fast path stays engaged).  Host
// phases carry wall-clock µs on the farm's epoch; region children carry
// simulated cycles and are mapped linearly into the decode window.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/processor.hpp"

namespace adres::trace {

enum class SpanKind : u8 {
  kPacket,     ///< whole lifetime: enqueue -> decode end
  kQueueWait,  ///< enqueue -> worker dispatch
  kDispatch,   ///< dispatch bookkeeping before the decode starts
  kDecode,     ///< the simulated decode itself
  kRegion,     ///< one modem kernel region inside the decode
};

const char* spanKindName(SpanKind k);

struct Span {
  SpanKind kind = SpanKind::kPacket;
  std::string name;     ///< region name for kRegion, phase name otherwise
  double startUs = 0;   ///< host µs on the farm epoch
  double durUs = 0;
  u64 startCycle = 0;   ///< sim cycle offset (kRegion / kDecode)
  u64 cycles = 0;       ///< sim cycles covered (kRegion / kDecode)
  u64 ops = 0;          ///< ops retired (kRegion)
};

/// The span tree of one decoded packet, summarized in its RxOutcome.
struct PacketSpans {
  u64 traceId = 0;
  u64 jobId = 0;
  int worker = -1;
  u32 tag = 0;  ///< submitter tag (campaign cell index)
  std::vector<Span> spans;

  bool empty() const { return spans.empty(); }
  /// First span of `kind`, or nullptr.
  const Span* find(SpanKind kind) const;
  double queueWaitUs() const;
  double decodeUs() const;
};

/// Deterministic, collision-resistant per-packet trace id (SplitMix64 over
/// job id and tag; never 0).
u64 packetTraceId(u64 jobId, u32 tag);

/// 16-hex-digit lowercase rendering (the exported trace_id label).
std::string traceIdHex(u64 id);

/// Builds the span tree for one decoded packet.  Host timestamps are µs on
/// the farm epoch; `regionLog` is the Processor's region-span log for this
/// decode (cycle offsets relative to the decode's cycle 0) and is mapped
/// linearly into [decodeStartUs, decodeEndUs].
PacketSpans buildPacketSpans(u64 jobId, u32 tag, int worker, double enqueueUs,
                             double dispatchUs, double decodeStartUs,
                             double decodeEndUs, u64 decodeCycles,
                             const std::vector<RegionSpan>& regionLog,
                             const std::vector<std::string>& regionNames);

}  // namespace adres::trace
