// Replayable postmortem bundles (`adres.postmortem.v1`, DESIGN.md §16).
//
// When the self-auditing runtime trips — a sentinel divergence, a watchdog
// cancellation/budget exhaustion, or an SLO breach — a farm with capture on
// freezes the whole incident into one atomic JSON file: the exact rx
// payload, modem configuration and cycle budget needed to re-run the packet
// (the black box *and* the flight), both decode results with their
// per-region counter partitions, the span tree, the shadow decode's
// flight-recorder ring, the registry's Prometheus exposition and the build
// identity.
// `tools/postmortem_replay` re-decodes a bundle standalone and confirms (or
// refutes) the recorded failure.
//
// Writes are atomic (writeFileAtomic: tmp file + rename) and the store is
// bounded (oldest-evicted).  64-bit values that do not survive a double
// round-trip (trace id, fault seed) are serialized as 16-hex-digit strings.
#pragma once

#include <array>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/processor.hpp"
#include "obs/integrity.hpp"
#include "obs/metrics.hpp"
#include "trace/span.hpp"
#include "trace/trace.hpp"

namespace adres::obs {

struct PostmortemConfig {
  /// The one capture switch: a farm creates its bundle store (and the
  /// directory) only when set, and every trigger writes through that store.
  /// Off, the farm writes no file and creates no directory.
  bool enabled = false;
  std::string dir = "postmortems";  ///< store directory (created on demand)
  std::size_t maxBundles = 16;      ///< bound on retained bundle files
  /// Registry whose Prometheus exposition is embedded in each bundle (the
  /// "metrics" string); null skips it.  Must outlive the writer.
  const MetricsRegistry* metrics = nullptr;
};

struct PostmortemBundle {
  std::string trigger;  ///< "divergence" | "watchdog" | "slo_breach" | ...
  std::string reason;   ///< human-readable cause
  u64 jobId = 0;
  u32 tag = 0;
  int worker = -1;
  u64 traceId = 0;

  // The exact re-run recipe: modem config, tiers, budget, fault seed and
  // the raw rx payload.  Everything replayPostmortem needs.
  int modulation = 0;  ///< dsp::Modulation as its underlying integer
  int numSymbols = 0;
  std::string execTier;    ///< primary decode's tier label
  std::string shadowTier;  ///< "" when no shadow decode was recorded
  /// Cycle budget the recorded decodes ran under: the packet's per-job cap
  /// when tighter than the farm's run budget.
  u64 maxCycles = 0;
  u64 faultInjectSeed = 0;  ///< RxRunOptions::faultInjectBitFlipSeed (0 = off)
  std::array<std::vector<cint16>, 2> rx;

  DecodeSummary primary;                ///< the serving-path decode
  std::optional<DecodeSummary> shadow;  ///< the sentinel's shadow decode

  trace::PacketSpans spans;      ///< span tree (may be empty)
  std::vector<TraceEvent> ring;  ///< flight-recorder ring of the shadow redo
  u64 ringAccepted = 0;
  u64 ringDropped = 0;
  std::size_t ringCapacity = 0;
};

/// Serializes a bundle as adres.postmortem.v1.  `metrics`, when non-null,
/// embeds the registry's current Prometheus exposition as one JSON string;
/// the build identity is always embedded.
void writePostmortemJson(const PostmortemBundle& b, std::ostream& os,
                         const MetricsRegistry* metrics = nullptr);

/// Parses an adres.postmortem.v1 file back into a bundle (via
/// common/json_min).  The embedded "metrics" and "buildinfo" blocks are
/// diagnostic context only and are not re-materialized.  Throws SimError on
/// a missing file, wrong schema, or malformed content.
PostmortemBundle loadPostmortemBundle(const std::string& path);

/// Bounded, thread-safe bundle store with atomic writes.
class PostmortemWriter {
 public:
  explicit PostmortemWriter(PostmortemConfig cfg);

  /// Persists the bundle atomically (writeFileAtomic), then evicts the
  /// oldest bundle when the store is full.  Returns the file path, or ""
  /// when the write failed — the bundle is then neither counted nor kept.
  std::string write(const PostmortemBundle& b);

  /// Paths currently retained, oldest first.
  std::vector<std::string> paths() const;
  u64 written() const;  ///< total writes (including later-evicted ones)
  u64 evicted() const;

  const PostmortemConfig& config() const { return cfg_; }

 private:
  PostmortemConfig cfg_;
  mutable std::mutex mu_;
  std::vector<std::string> paths_;  ///< retained files, oldest first
  u64 written_ = 0;
  u64 evicted_ = 0;
  u64 fileSeq_ = 0;
};

}  // namespace adres::obs
