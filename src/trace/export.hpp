// Trace exporter: Chrome trace-event JSON (chrome://tracing / Perfetto).
//
// The Chrome export maps the simulator onto one process with one named
// track (tid) per VLIW issue slot and per CGA FU, plus tracks for the core
// mode timeline, L1 banks, the DMA engine, the AHB slave and the I$ — so a
// kernel's occupancy renders as a per-FU heatmap.  Timestamps are emitted
// in microseconds at the modelled clock (cycle * cyclePeriodUs).
#pragma once

#include <ostream>
#include <string>
#include <vector>

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

}  // namespace adres::trace
