// Trace exporters: Chrome trace-event JSON (chrome://tracing / Perfetto)
// and a flat JSONL stream.
//
// The Chrome export maps the simulator onto one process with one named
// track (tid) per VLIW issue slot and per CGA FU, plus tracks for the core
// mode timeline, L1 banks, the DMA engine, the AHB slave and the I$ — so a
// kernel's occupancy renders as a per-FU heatmap.  Timestamps are emitted
// in microseconds at the modelled clock (cycle * cyclePeriodUs).
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/span.hpp"
#include "trace/trace.hpp"

namespace adres::trace {

/// Optional symbol tables used to label events; indices out of range fall
/// back to numeric labels.
struct TraceNames {
  std::vector<std::string> kernels;  ///< kernel index -> name
  std::vector<std::string> regions;  ///< region id -> name
};

/// Stable tid layout of the Chrome export (one process, pid 1).
namespace tid {
inline constexpr int kCore = 0;         ///< mode switches, kernels, regions, halt
inline constexpr int kVliwSlot0 = 1;    ///< .. kVliwSlot0 + slot
inline constexpr int kCgaFu0 = 10;      ///< .. kCgaFu0 + fu
inline constexpr int kL1Bank0 = 40;     ///< .. kL1Bank0 + bank
inline constexpr int kICache = 50;
inline constexpr int kDma = 51;
inline constexpr int kAhb = 52;
}  // namespace tid

/// Writes the full Chrome trace-event JSON object ({"traceEvents": [...]}).
void writeChromeTrace(const std::vector<TraceEvent>& events, std::ostream& os,
                      const TraceNames& names = {},
                      double cyclePeriodUs = 1.0 / 400.0);

/// Writes one JSON object per line, schema-stable:
/// {"cycle":N,"dur":N,"kind":"...","track":N,"a":N,"b":N}
void writeJsonl(const std::vector<TraceEvent>& events, std::ostream& os);

// -- Artifact-harvest fragments ---------------------------------------------
// The span-array and flight-recorder-ring JSON bodies of adres.postmortem.v1
// bundles: one object per line at `indent` spaces, emitted between the
// caller's '[' and ']' (a leading newline before the first entry, nothing
// after the last).

/// {"kind": "...", "name": "...", "start_us": .., "dur_us": ..,
///  "start_cycle": N, "cycles": N, "ops": N}
void writeSpanJsonEntries(const std::vector<Span>& spans, std::ostream& os,
                          int indent);

/// {"cycle": N, "dur": N, "kind": "...", "track": N, "a": N, "b": N}
void writeTraceEventJsonEntries(const std::vector<TraceEvent>& events,
                                std::ostream& os, int indent);

/// Reverse lookups for the artifact loaders (postmortem_replay); throw
/// SimError on an unknown label.
SpanKind spanKindFromName(std::string_view name);
TraceEventKind traceEventKindFromName(std::string_view name);

}  // namespace adres::trace
