// CellScheduler: dispatches a CellScenario's packet schedule onto a
// PacketFarm and folds the outcomes through a deterministic discrete-event
// simulation of `numServers` baseband processors at the paper's 400 MHz
// clock — turning cycle-accurate per-packet decodes into cell-level QoS:
// per-flow latency distributions, goodput, and deadline-miss rates.
//
// Two distinct "worker" notions, deliberately decoupled:
//   * scenario.numServers — SIMULATED processors.  Queueing, service times
//     (decode cycles / 400 MHz), deadlines and every reported statistic
//     live on this axis; bench_cell sweeps it.
//   * farm numWorkers — HOST threads that parallelize the cycle-accurate
//     decodes.  Affects wall-clock only: with the farm in ordered mode each
//     decode is a deterministic function of the waveform, so the DES fold
//     (job-id order) produces byte-identical summaries for any worker
//     count — the property the determinism self-checks assert.
//
// Deadline semantics: packet latency is enqueue-to-decode-complete in
// simulated time (queue wait for a free server + decode cycles at 400 MHz).
//   expired — every server stays busy past the deadline: dropped without
//             service (the admission-control drop).
//   overrun — the decode's own cycle budget (deadline in cycles, carried
//             per-job via RxJob::maxCycles) is exhausted: the decode stops
//             with StopReason::kMaxCycles and flows through the watchdog's
//             budget path (kBudgetExhausted health events) — the budget is
//             the farm's one early stop, so the cell layer adds none.
//   late    — served to completion, but past the deadline.
// All three are misses and drops.  On-time packets split into delivered
// (bit-exact payload) and errors (channel defeated the decoder).  Every
// packet records one latency sample (give-up wait for expired packets), so
// histogram count == offered — the accounting identity selfCheck() asserts
// and Histogram::countAbove-based SLO miss rates approximate.
#pragma once

#include <atomic>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cell/flow.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "platform/packet_farm.hpp"

namespace adres::cell {

/// Per-flow QoS accounting.  Counters are atomics: the collector thread
/// folds, metrics scrapes read concurrently.
struct FlowStats {
  std::atomic<u64> offered{0};
  std::atomic<u64> delivered{0};  ///< on time, payload bit-exact
  std::atomic<u64> errors{0};     ///< on time, decode failed / bits wrong
  std::atomic<u64> missedLate{0};
  std::atomic<u64> missedExpired{0};
  std::atomic<u64> missedOverrun{0};
  std::atomic<u64> bitErrors{0};   ///< across comparable decodes
  std::atomic<u64> goodputBits{0};  ///< delivered payload bits
  std::atomic<u64> latencySumNs{0};
  obs::LogLinearHistogram latencyNs;  ///< simulated latency, ns

  u64 missed() const {
    return missedLate.load(std::memory_order_relaxed) +
           missedExpired.load(std::memory_order_relaxed) +
           missedOverrun.load(std::memory_order_relaxed);
  }
  double missRate() const {
    const u64 off = offered.load(std::memory_order_relaxed);
    return off ? static_cast<double>(missed()) / static_cast<double>(off) : 0.0;
  }
};

/// Cell-wide totals returned by run() (simulated quantities only — host
/// timing stays out so summaries are byte-stable).
struct CellTotals {
  u64 offered = 0;
  u64 delivered = 0;
  u64 errors = 0;
  u64 missedLate = 0;
  u64 missedExpired = 0;
  u64 missedOverrun = 0;
  double makespanUs = 0.0;     ///< last simulated service completion
  double utilization = 0.0;    ///< mean server busy fraction over makespan

  u64 missed() const { return missedLate + missedExpired + missedOverrun; }
  double missRate() const {
    return offered ? static_cast<double>(missed()) / static_cast<double>(offered)
                   : 0.0;
  }
  double goodputMbps(const CellScenario& s, u64 goodputBits) const {
    return s.durationUs > 0
               ? static_cast<double>(goodputBits) / s.durationUs  // bits/µs
               : 0.0;
  }
};

class CellScheduler {
 public:
  explicit CellScheduler(CellScenario scenario);

  /// Drives the full schedule through `farm` (which must be in ordered mode
  /// with the scenario's modem) and folds outcomes through the server DES.
  /// Callable once per scheduler.  The farm is left running (caller owns
  /// finish()); a farm may serve several schedulers sequentially.
  CellTotals run(platform::PacketFarm& farm);

  const CellScenario& scenario() const { return scenario_; }
  const std::vector<UserFlow>& flows() const { return flows_; }
  const std::vector<PacketEvent>& schedule() const { return schedule_; }
  const FlowStats& flowStats(u32 flowId) const { return *flowStats_[flowId]; }
  const CellTotals& totals() const { return totals_; }
  u64 goodputBits() const { return goodputBits_.load(std::memory_order_relaxed); }

  /// Merged simulated-latency histogram across every flow (the
  /// adres_cell_latency_us summary source; ns raw, 1e-3 scale to µs).
  obs::HistogramSnapshot latencySnapshot() const;
  /// Simulated latency histogram of one class.
  obs::HistogramSnapshot classLatencySnapshot(int classIdx) const;

  /// Live progress: packets folded / simulated time reached (µs).
  u64 packetsFolded() const { return folded_.load(std::memory_order_relaxed); }
  double simTimeUs() const {
    return static_cast<double>(simTimeNs_.load(std::memory_order_relaxed)) *
           1e-3;
  }

  /// Registers every cell series on `reg`: the adres_cell_latency_us
  /// summary the SLO engine's deadline_miss_rate(us) prefers, per-class
  /// latency summaries, cell counters/gauges, and the per-flow QoS families
  /// (offered/missed/miss-rate/goodput/SNR by flow label).  The scheduler
  /// must outlive `reg`, or reg.clear() must run first.
  void registerMetrics(obs::MetricsRegistry& reg) const;

  /// The adres.cell.v1 summary: scenario echo + hash, cell totals, and the
  /// full per-flow QoS table.  Simulated quantities only, %.17g doubles —
  /// two runs of the same scenario must produce identical bytes whatever
  /// the farm's worker count (the determinism self-checks byte-compare it).
  void writeSummary(std::ostream& os) const;
  /// writeSummary to `path` atomically (writeFileAtomic); throws SimError
  /// naming `path` when the write fails.
  void writeSummaryFile(const std::string& path) const;

  /// The accounting identities every run must satisfy: per flow and
  /// cell-wide, offered == delivered + errors + late + expired + overrun,
  /// histogram count == offered, and the flow table sums to the totals.
  /// Returns false (with a reason on `why`) on any violation — the
  /// miss-accounting self-check CI runs.
  bool selfCheck(std::string* why = nullptr) const;

 private:
  void fold(const PacketEvent& ev, const std::vector<u8>& golden,
            const platform::RxOutcome& out);

  CellScenario scenario_;
  std::vector<UserFlow> flows_;
  std::vector<PacketEvent> schedule_;
  std::vector<std::unique_ptr<FlowStats>> flowStats_;
  std::vector<std::unique_ptr<obs::LogLinearHistogram>> classLatencyNs_;
  std::vector<double> flowSnr0Db_;  ///< per-flow SNR at t=0 (for metrics)

  // DES state (collector thread only).
  std::vector<double> serverFreeUs_;
  std::vector<double> serverBusyUs_;

  std::atomic<u64> folded_{0};
  std::atomic<u64> simTimeNs_{0};
  std::atomic<u64> goodputBits_{0};
  CellTotals totals_;
  bool ran_ = false;
};

}  // namespace adres::cell
