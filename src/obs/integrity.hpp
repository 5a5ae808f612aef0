// DivergenceSentinel: the online correctness auditor of the self-auditing
// runtime (DESIGN.md §16).
//
// A farm serving traffic on the native exec tier is only trustworthy if the
// native tier still matches the reference semantics *under that traffic*.
// The sentinel closes that loop: a deterministic per-packet coin flip
// (hashed off the packet trace id, so the sampled subset is identical
// across runs and worker counts) selects a configurable fraction of decoded
// packets and shadow-decodes their retained rx payload on a held-back
// decoder running the OTHER exec tier — reference behind a native farm,
// native behind a reference farm (a same-tier shadow would audit nothing
// independent) — comparing decoded bits, the simulated cycle count, the
// result metadata and the per-region counter partition.  The shadow runs
// under the packet's own cycle budget, so a decode the budget stopped is
// compared with an equally stopped one.  Any mismatch becomes a structured
// IntegrityEvent — and, through the bundle hook, a replayable
// `adres.postmortem.v1` bundle carrying the exact payload.
//
// Layering: the sentinel owns the sampling math, the comparison and the
// event bookkeeping; the *decoding* is injected as a callback so obs/ never
// depends on the platform/sdr layers (PacketFarm supplies a closure around
// its private shadow RxSession).
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cga/exec_tier.hpp"
#include "common/types.hpp"
#include "core/processor.hpp"
#include "trace/span.hpp"
#include "trace/trace.hpp"

namespace adres::obs {

struct SentinelConfig {
  bool enabled = false;
  /// Fraction of packets shadow-decoded, in [0,1].  The decision is a pure
  /// function of (trace id, seed): sampleRate 1.0 audits every packet.
  double sampleRate = 0.01;
  /// Mixed into the sampling hash; changing it selects a different (still
  /// deterministic) packet subset.
  u64 seed = 0x51DE'C0DEull;
};

/// Everything of one decode the sentinel compares — a tier-agnostic summary
/// both the primary worker and the shadow decoder can produce, and the
/// decode record a postmortem bundle stores.
struct DecodeSummary {
  bool detected = false;
  u32 ltfStart = 0;
  std::string stop;  ///< stopReasonName of the run's stop reason
  u64 cycles = 0;
  u64 totalOps = 0;  ///< ActivityCounters::totalOps of the decode
  std::vector<u8> bits;
  /// Per-region counter partition (region id -> profile), from
  /// Processor::profiles() after the decode.
  std::map<int, RegionProfile> regions;
};

/// One decoded packet as the self-auditing layer sees it: identity, the
/// exact payload, the cycle budget its decode ran under, and that decode's
/// summary and span tree — what the sentinel audits and what a postmortem
/// bundle freezes.
struct DecodedPacket {
  u64 jobId = 0;
  u32 tag = 0;
  int worker = -1;
  u64 traceId = 0;
  /// Effective simulated-cycle budget: the per-job cap (RxJob::maxCycles)
  /// when tighter than the farm's run budget.
  u64 maxCycles = 0;
  const std::array<std::vector<cint16>, 2>& rx;
  const DecodeSummary& primary;
  const trace::PacketSpans& spans;  ///< empty unless span recording is on
};

/// One detected primary/shadow mismatch.
struct IntegrityEvent {
  /// Primary dimension of the divergence (bits > result > cycles >
  /// counters when several diverge at once).
  enum class Kind { kBits, kResult, kCycles, kCounters };

  Kind kind = Kind::kBits;
  bool bitsDiverged = false;
  bool resultDiverged = false;    ///< detected / ltfStart / stop mismatch
  bool cyclesDiverged = false;
  bool countersDiverged = false;  ///< region counter partition mismatch
  u64 jobId = 0;
  u32 tag = 0;
  int worker = -1;
  u64 traceId = 0;
  u64 bitErrors = 0;  ///< differing positions (0 when lengths differ)
  u64 primaryCycles = 0;
  u64 shadowCycles = 0;
  std::string shadowTier;
  std::string detail;      ///< human-readable summary
  std::string bundlePath;  ///< persisted postmortem bundle ("" if none)
};

/// Stable lower_snake label for an event kind (metrics, logs).
const char* integrityEventKindName(IntegrityEvent::Kind k);

/// The tier that audits traffic decoded on `primary`: the other one.
ExecTier shadowTierFor(ExecTier primary);

class DivergenceSentinel {
 public:
  /// Shadow decoder: decodes `p.rx` on the held-back tier under
  /// `p.maxCycles` and summarizes the result.  A non-null `trace` must be
  /// attached to the decode (only the divergence re-decode passes one, so
  /// the common sampled path stays on the fast loop).
  using ShadowDecodeFn =
      std::function<DecodeSummary(const DecodedPacket& p, TraceSink* trace)>;
  /// Bundle writer hook, called per divergence (after the re-decode) with
  /// the event, the audited packet, the shadow summary and the shadow's
  /// flight-recorder ring; returns the persisted bundle path ("" when not
  /// persisted).
  using BundleFn = std::function<std::string(
      const IntegrityEvent& ev, const DecodedPacket& p,
      const DecodeSummary& shadow, const RingBufferSink& ring)>;

  /// `primaryTier` is the tier the audited traffic decodes on; `shadow`
  /// must decode on shadowTier() == shadowTierFor(primaryTier).
  DivergenceSentinel(SentinelConfig cfg, ExecTier primaryTier,
                     ShadowDecodeFn shadow);

  ExecTier shadowTier() const { return shadowTier_; }

  /// Deterministic sampling decision for a packet trace id.
  bool shouldSample(u64 traceId) const;

  /// Shadow-decodes `p.rx`, compares against `p.primary`, and on mismatch
  /// records (and returns) an IntegrityEvent.  Serialized internally: one
  /// shadow decode at a time.  Call only when shouldSample() returned true.
  std::optional<IntegrityEvent> audit(const DecodedPacket& p);

  /// Installs the postmortem bundle writer.  Set before traffic.
  void setBundleFn(BundleFn fn);

  u64 sampled() const { return sampled_.load(std::memory_order_relaxed); }
  u64 divergences() const {
    return divergences_.load(std::memory_order_relaxed);
  }
  std::vector<IntegrityEvent> events() const;

  const SentinelConfig& config() const { return cfg_; }

 private:
  SentinelConfig cfg_;
  ExecTier shadowTier_;
  u64 sampleThreshold_ = 0;  ///< hash < threshold -> sampled
  ShadowDecodeFn shadow_;
  BundleFn bundleFn_;
  std::atomic<u64> sampled_{0};
  std::atomic<u64> divergences_{0};
  mutable std::mutex mu_;  ///< serializes shadow decodes, guards events_
  std::vector<IntegrityEvent> events_;
};

/// Compares two decode summaries; returns the populated event (identity
/// fields left to the caller) or nullopt when they match exactly.  Exposed
/// for tests.
std::optional<IntegrityEvent> compareDecodes(const DecodeSummary& primary,
                                             const DecodeSummary& shadow);

}  // namespace adres::obs
