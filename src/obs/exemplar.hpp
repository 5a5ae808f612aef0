// Tail-latency exemplar capture (DESIGN.md §13).
//
// When a packet's decode latency exceeds a configurable quantile of the
// farm's latency histogram, its flight-recorder ring buffer and span tree
// are persisted to a bounded exemplar store (one `adres.exemplar.v1` JSON
// file per packet, written atomically: tmp file + rename).  The store keeps
// the `maxExemplars` slowest packets, evicting the fastest-of-the-slow; its
// records double as the Prometheus exemplars attached to the latency
// histogram buckets on /metrics (trace id + latency).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/histogram.hpp"
#include "trace/span.hpp"
#include "trace/trace.hpp"

namespace adres::obs {

struct ExemplarConfig {
  bool enabled = false;
  std::string dir = "exemplars";  ///< store directory (created on demand)
  double quantile = 0.99;         ///< capture packets above this quantile
  std::size_t maxExemplars = 8;   ///< bound on retained exemplar files
  u64 minCount = 32;              ///< histogram samples before capture arms
  std::size_t ringCapacity = 4096;  ///< per-worker flight-recorder depth
};

/// One captured exemplar (the in-memory index of a persisted file).
struct ExemplarRecord {
  u64 traceId = 0;
  u64 jobId = 0;
  int worker = -1;
  double latencyUs = 0;
  double queueWaitUs = 0;
  u64 simCycles = 0;
  std::string path;  ///< persisted adres.exemplar.v1 file
};

/// Bounded, thread-safe store of the slowest packets seen by a farm run.
class ExemplarStore {
 public:
  explicit ExemplarStore(ExemplarConfig cfg);

  /// Latency threshold (µs) above which a packet qualifies, derived from the
  /// configured quantile of `latencyNs`; +inf until `minCount` samples.
  double thresholdUs(const HistogramSnapshot& latencyNs) const;

  /// Captures the packet if it qualifies (above threshold and either the
  /// store has room or it is slower than the current fastest exemplar).
  /// Writes the exemplar file atomically (writeFileAtomic); returns true if
  /// captured.  A failed write captures nothing: no record, no count.
  bool maybeCapture(const trace::PacketSpans& spans,
                    const std::vector<TraceEvent>& ringEvents,
                    u64 ringAccepted, u64 ringDropped,
                    std::size_t ringCapacity, double latencyUs,
                    double queueWaitUs, u64 simCycles,
                    const HistogramSnapshot& latencyNs);

  /// Current records, slowest first.
  std::vector<ExemplarRecord> records() const;

  u64 captured() const;  ///< total captures (including later-evicted ones)
  u64 evicted() const;

  const ExemplarConfig& config() const { return cfg_; }

 private:
  ExemplarConfig cfg_;
  mutable std::mutex mu_;
  std::vector<ExemplarRecord> records_;  ///< kept sorted, slowest first
  u64 captured_ = 0;
  u64 evicted_ = 0;
  u64 fileSeq_ = 0;
};

}  // namespace adres::obs
