#include "obs/integrity.hpp"

#include <cmath>
#include <sstream>

#include "common/hash.hpp"

namespace adres::obs {
namespace {

/// Mixed into the sampling hash: the audited subset is a pure function of
/// the trace id.
constexpr u64 kSampleSeed = 0x51DE'C0DEull;

}  // namespace

const char* integrityEventKindName(IntegrityEvent::Kind k) {
  switch (k) {
    case IntegrityEvent::Kind::kBits: return "bits";
    case IntegrityEvent::Kind::kResult: return "result";
    case IntegrityEvent::Kind::kCycles: return "cycles";
    case IntegrityEvent::Kind::kCounters: return "counters";
  }
  return "?";
}

ExecTier shadowTierFor(ExecTier primary) {
  return primary == ExecTier::kNative ? ExecTier::kReference
                                      : ExecTier::kNative;
}

std::optional<IntegrityEvent> compareDecodes(const DecodeSummary& primary,
                                             const DecodeSummary& shadow) {
  IntegrityEvent ev;
  std::ostringstream detail;

  if (primary.bits.size() != shadow.bits.size()) {
    ev.bitsDiverged = true;
    detail << "bit count " << primary.bits.size() << " vs "
           << shadow.bits.size() << "; ";
  } else {
    for (std::size_t i = 0; i < primary.bits.size(); ++i)
      if (primary.bits[i] != shadow.bits[i]) ++ev.bitErrors;
    if (ev.bitErrors) {
      ev.bitsDiverged = true;
      detail << ev.bitErrors << " of " << primary.bits.size()
             << " payload bits differ; ";
    }
  }
  if (primary.detected != shadow.detected ||
      primary.ltfStart != shadow.ltfStart || primary.stop != shadow.stop) {
    ev.resultDiverged = true;
    detail << "result meta (detected " << primary.detected << " vs "
           << shadow.detected << ", ltf " << primary.ltfStart << " vs "
           << shadow.ltfStart << ", stop " << primary.stop << " vs "
           << shadow.stop << "); ";
  }
  if (primary.cycles != shadow.cycles) {
    ev.cyclesDiverged = true;
    detail << "cycles " << primary.cycles << " vs " << shadow.cycles << "; ";
  }
  ev.countersDiverged = primary.totalOps != shadow.totalOps ||
                        primary.regions != shadow.regions;
  if (ev.countersDiverged)
    detail << "counter partition differs (ops " << primary.totalOps << " vs "
           << shadow.totalOps << ", " << primary.regions.size() << " vs "
           << shadow.regions.size() << " regions); ";

  if (!ev.bitsDiverged && !ev.resultDiverged && !ev.cyclesDiverged &&
      !ev.countersDiverged)
    return std::nullopt;

  ev.kind = ev.bitsDiverged    ? IntegrityEvent::Kind::kBits
            : ev.resultDiverged ? IntegrityEvent::Kind::kResult
            : ev.cyclesDiverged ? IntegrityEvent::Kind::kCycles
                                : IntegrityEvent::Kind::kCounters;
  ev.primaryCycles = primary.cycles;
  ev.shadowCycles = shadow.cycles;
  ev.detail = detail.str();
  if (ev.detail.size() >= 2) ev.detail.resize(ev.detail.size() - 2);
  return ev;
}

DivergenceSentinel::DivergenceSentinel(SentinelConfig cfg,
                                       ExecTier primaryTier,
                                       ShadowDecodeFn shadow)
    : cfg_(cfg),
      shadowTier_(shadowTierFor(primaryTier)),
      shadow_(std::move(shadow)) {
  // hash < rate * 2^64, computed carefully at the rate==1 edge: 1.0 * 2^64
  // overflows u64, so saturate to "always".
  double rate = cfg_.sampleRate;
  if (!(rate > 0.0)) rate = 0.0;
  if (rate >= 1.0) {
    sampleThreshold_ = ~0ull;
  } else {
    sampleThreshold_ =
        static_cast<u64>(std::ldexp(rate, 64) < 1.0 ? 0.0 : std::ldexp(rate, 64));
  }
}

bool DivergenceSentinel::shouldSample(u64 traceId) const {
  if (!cfg_.enabled || sampleThreshold_ == 0) return false;
  if (sampleThreshold_ == ~0ull) return true;
  return mix64(traceId ^ kSampleSeed) < sampleThreshold_;
}

std::optional<IntegrityEvent> DivergenceSentinel::audit(
    const DecodedPacket& p) {
  std::lock_guard<std::mutex> lk(mu_);
  sampled_.fetch_add(1, std::memory_order_relaxed);
  const DecodeSummary shadow = shadow_(p);
  std::optional<IntegrityEvent> out = compareDecodes(p.primary, shadow);
  if (!out) return std::nullopt;

  out->jobId = p.jobId;
  out->tag = p.tag;
  out->worker = p.worker;
  out->traceId = p.traceId;
  out->shadowTier = execTierName(shadowTier_);
  if (bundleFn_) out->bundlePath = bundleFn_(*out, p, shadow);
  divergences_.fetch_add(1, std::memory_order_relaxed);
  events_.push_back(*out);
  return out;
}

void DivergenceSentinel::setBundleFn(BundleFn fn) {
  std::lock_guard<std::mutex> lk(mu_);
  bundleFn_ = std::move(fn);
}

std::vector<IntegrityEvent> DivergenceSentinel::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_;
}

}  // namespace adres::obs
