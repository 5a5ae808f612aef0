// Replayable postmortem bundles (`adres.postmortem.v1`, DESIGN.md §16).
//
// When the self-auditing runtime trips — a sentinel divergence, a decode
// that stopped without halting, or an SLO breach — a farm with capture on
// freezes the whole incident into one atomic JSON file: the exact rx
// payload, modem configuration and cycle budget needed to re-run the packet,
// both decode results with their per-region counter partitions, the
// registry's Prometheus exposition and the build identity.  Any trace of
// the packet can be taken after the fact: `tools/postmortem_replay`
// re-runs each recorded decode by its own recipe and confirms (or refutes)
// the recorded failure.
//
// Writes are atomic (writeFileAtomic: tmp file + rename) and the store is
// bounded (oldest-evicted).  64-bit values that do not survive a double
// round-trip (trace id, fault seed) are serialized as hex64 strings.
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

namespace adres::obs {

struct PostmortemConfig {
  /// The one capture switch: a farm creates its bundle store (and the
  /// directory) only when set, and every trigger writes through that store.
  /// Off, the farm writes no file and creates no directory.
  bool enabled = false;
  std::string dir = "postmortems";  ///< store directory (created on demand)
  /// Bound on the bundle files this writer retains (oldest evicted first).
  /// Each writer bounds only its own files; writers sharing a directory
  /// never overwrite one another's (file names carry a process-wide
  /// sequence number).
  std::size_t maxBundles = 16;
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
  /// The primary decode's RxRunOptions::faultInjectBitFlipSeed (0 = off);
  /// the shadow decode never carries one.
  u64 faultInjectSeed = 0;
  std::array<std::vector<cint16>, 2> rx;

  DecodeSummary primary;                ///< the serving-path decode (execTier)
  std::optional<DecodeSummary> shadow;  ///< the sentinel's (shadowTier)
};

/// Serializes a bundle as adres.postmortem.v1.  `metrics`, when non-null,
/// embeds the registry's current Prometheus exposition as one JSON string;
/// the build identity is always embedded.
void writePostmortemJson(const PostmortemBundle& b, std::ostream& os,
                         const MetricsRegistry* metrics = nullptr);

/// Parses an adres.postmortem.v1 file back into a bundle (via
/// common/json_min).  The embedded "metrics" and "buildinfo" blocks are
/// diagnostic context only and are not re-materialized; the "spans" and
/// "ring" blocks older writers added are ignored.  Throws SimError on a
/// missing file or wrong schema, and std::runtime_error (naming the key)
/// on malformed content: a wrong JSON type, or a number its field cannot
/// hold.
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
};

}  // namespace adres::obs
