// Declarative service-level objectives over the metrics registry
// (DESIGN.md §16).
//
// An SloSpec names one farm health dimension — p99 decode latency,
// queue-wait share of packet time, deadline-miss rate, watchdog events,
// divergence count — with a threshold; the SloEngine evaluates every spec
// against a MetricsRegistry snapshot (on demand or on its own periodic
// thread), tracks burn-rate and consecutive-breach state, and exposes the
// result as Prometheus gauge families on the registry it watches (served on
// `/metrics` with every other series).  A breach-onset hook turns an SLO
// violation into a postmortem-bundle trigger.
//
// Spec grammar (parseSloSpecList; ';'-separated list):
//
//   spec   := name ':' metric ['(' number ')'] ('<' | '<=') number ['for' N]
//   metric := p99_latency_us | queue_wait_share |
//             deadline_miss_rate(deadline_us) | watchdog_events | divergences
//
// e.g.  "p99: p99_latency_us < 50000; miss: deadline_miss_rate(20000) <= 0.01;
//        integrity: divergences < 1 for 2"
//
// `for N` arms the breach only after N consecutive breaching evaluations
// (burn-rate style de-flapping); default 1.
//
// deadline_miss_rate reads the cell layer's simulated-latency summary
// (adres_cell_latency_us) whenever it has samples — frame budgets are a
// simulated-time contract — and falls back to the farm host-latency summary
// (adres_farm_latency_host_us) for farm-only setups.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace adres::obs {

enum class SloKind : u8 {
  kP99LatencyUs,      ///< p99 of adres_farm_latency_host_us (µs)
  kQueueWaitShare,    ///< queue-wait time / (queue-wait + decode) time
  kDeadlineMissRate,  ///< fraction of decodes slower than `deadlineUs`
  kWatchdogEvents,    ///< adres_farm_health_events_total
  kDivergences,       ///< adres_farm_divergences_total
};

/// Stable metric token for a kind (the spec-grammar name).
const char* sloKindName(SloKind k);

struct SloSpec {
  std::string name;  ///< label value on the exported adres_slo_* series
  SloKind kind = SloKind::kP99LatencyUs;
  double threshold = 0.0;
  bool strict = true;      ///< true: value must stay < threshold; false: <=
  double deadlineUs = 0;   ///< kDeadlineMissRate argument
  int forCount = 1;        ///< consecutive breaching evals before firing
};

/// Parses one spec / a ';'-separated list.  Throws SimError on malformed
/// input (bad metric token, missing threshold, non-positive `for`).
SloSpec parseSloSpec(const std::string& text);
std::vector<SloSpec> parseSloSpecList(const std::string& text);
/// Canonical round-trippable rendering of a spec.
std::string sloSpecToString(const SloSpec& spec);

struct SloStatus {
  SloSpec spec;
  double value = 0.0;    ///< last evaluated value
  bool haveValue = false;  ///< false until the source series has data
  bool breaching = false;  ///< last evaluation violated the threshold
  bool fired = false;      ///< breaching for >= spec.forCount consecutive evals
  int consecutive = 0;     ///< current breaching streak
  u64 breaches = 0;        ///< fired-onset transitions so far
  /// value / threshold: <1 inside budget, >=1 burning.  0 when the
  /// threshold is 0 and the value is too (an exact "never" objective).
  double burnRate = 0.0;
  u64 evaluations = 0;
};

class SloEngine {
 public:
  /// The registry must outlive the engine (or clear() first).  The specs
  /// are fixed at construction.
  SloEngine(const MetricsRegistry& reg, std::vector<SloSpec> specs);
  ~SloEngine();

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Evaluates every spec against a fresh registry snapshot.  Takes the
  /// registry snapshot BEFORE the engine mutex, so it may be called
  /// concurrently with metric getters that read the engine's cached state.
  /// Returns the updated statuses.
  std::vector<SloStatus> evaluate();

  /// Called once per fired-onset (a spec transitioning to fired), outside
  /// the engine mutex — the postmortem trigger.  Set before traffic.
  using BreachHook = std::function<void(const SloStatus&)>;
  void setBreachHook(BreachHook hook);

  /// Registers adres_slo_value / adres_slo_burn_rate / adres_slo_breaching
  /// gauge families and the adres_slo_breaches_total counter family
  /// (label: slo=<name>) on `metricsReg`.  The getters only read the
  /// engine's cached statuses — they never re-evaluate, so registering on
  /// the same registry the engine snapshots cannot deadlock.
  void registerMetrics(MetricsRegistry& metricsReg);

  /// Spawns a monitor thread calling evaluate() every `periodMs`.
  void startPeriodic(int periodMs);
  /// Stops and joins the monitor.  Idempotent; safe without startPeriodic().
  void stop();

  u64 totalEvaluations() const {
    return evals_.load(std::memory_order_relaxed);
  }

 private:
  double extractValue(const MetricsSnapshot& snap, const SloSpec& spec,
                      bool* have) const;

  const MetricsRegistry& reg_;
  mutable std::mutex mu_;  ///< guards statuses_, hook_, monitor wakeup
  std::condition_variable cv_;
  std::vector<SloStatus> statuses_;
  BreachHook hook_;
  std::atomic<u64> evals_{0};
  bool stopping_ = false;
  std::thread monitor_;
};

}  // namespace adres::obs
