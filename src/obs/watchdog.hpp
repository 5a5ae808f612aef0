// WorkerWatchdog: health supervision for a pool of simulation workers.
//
// Each worker owns a `WorkerHealth` record of lock-free atomics: the decode
// heartbeat (simulated-cycle counter published by the sliced modem run, see
// RxRunOptions::progressCycles), the current job and a coarse state.  A
// monitor thread samples the records every pollMs and turns anomalies into
// structured `HealthEvent`s instead of silent hangs:
//
//   kStalled          busy worker whose heartbeat stopped advancing for
//                     stallTimeoutMs (reported once per stall)
//   kBudgetExhausted  a decode ended with StopReason::kMaxCycles
//
// The watchdog observes and never intervenes: a decode's only early stop
// is its cycle budget (RxJob::maxCycles / RxRunOptions::maxCycles).
//
// Events are collected under a mutex (events() copies them out);
// eventCount() is lock-free for metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "core/processor.hpp"

namespace adres::obs {

struct WatchdogConfig {
  bool enabled = true;
  int pollMs = 100;            ///< monitor sampling period
  int stallTimeoutMs = 5000;   ///< busy + no heartbeat advance -> stalled
};

enum class WorkerState : u32 { kIdle = 0, kBusy = 1, kDone = 2 };

/// Shared per-worker record: written by the worker, read by the monitor
/// and the metrics scraper.
struct WorkerHealth {
  static constexpr u64 kNoJob = ~0ull;

  std::atomic<u64> heartbeatCycles{0};  ///< sim cycles of the current decode
  std::atomic<u64> currentJob{kNoJob};
  std::atomic<u32> state{static_cast<u32>(WorkerState::kIdle)};

  void beginJob(u64 jobId) {
    heartbeatCycles.store(0, std::memory_order_relaxed);
    currentJob.store(jobId, std::memory_order_relaxed);
    state.store(static_cast<u32>(WorkerState::kBusy),
                std::memory_order_release);
  }
  void endJob() {
    state.store(static_cast<u32>(WorkerState::kIdle),
                std::memory_order_release);
    currentJob.store(kNoJob, std::memory_order_relaxed);
  }
};

struct HealthEvent {
  enum class Kind { kStalled, kBudgetExhausted };

  Kind kind = Kind::kStalled;
  int worker = -1;
  u64 jobId = WorkerHealth::kNoJob;
  u64 cycles = 0;       ///< heartbeat / final cycle count at detection
  double sinceMs = 0;   ///< ms without progress (kStalled only)
  std::string detail;   ///< human-readable summary
};

/// Stable lower_snake label for an event kind (metrics, logs).
const char* healthEventKindName(HealthEvent::Kind k);

class WorkerWatchdog {
 public:
  /// Creates the health records; the monitor thread only starts with
  /// start() (and only when cfg.enabled && pollMs > 0).
  WorkerWatchdog(int numWorkers, WatchdogConfig cfg);
  ~WorkerWatchdog();

  WorkerWatchdog(const WorkerWatchdog&) = delete;
  WorkerWatchdog& operator=(const WorkerWatchdog&) = delete;

  WorkerHealth& health(int worker) { return *health_[static_cast<std::size_t>(worker)]; }
  const WorkerHealth& health(int worker) const { return *health_[static_cast<std::size_t>(worker)]; }
  int numWorkers() const { return static_cast<int>(health_.size()); }
  const WatchdogConfig& config() const { return cfg_; }

  void start();
  /// Stops and joins the monitor.  Idempotent; safe without start().
  void stop();

  /// Worker-side classification of a finished decode: emits a
  /// kBudgetExhausted event for a kMaxCycles stop.  Thread-safe.
  void noteDecodeEnd(int worker, u64 jobId, StopReason stop, u64 cycles);

  std::vector<HealthEvent> events() const;
  u64 eventCount() const { return eventCount_.load(std::memory_order_relaxed); }

 private:
  struct Observed {
    u64 lastBeat = 0;
    u64 lastJob = WorkerHealth::kNoJob;
    std::chrono::steady_clock::time_point lastProgress{};
    bool stallReported = false;
  };

  void monitorLoop();
  void pollOnce(std::vector<Observed>& obs,
                std::chrono::steady_clock::time_point now);
  void emit(HealthEvent ev);

  /// Test seam: drives pollOnce with synthetic time points, so stall
  /// detection is checked independently of host scheduling.
  friend struct WatchdogTestPeer;

  WatchdogConfig cfg_;
  std::vector<std::unique_ptr<WorkerHealth>> health_;

  mutable std::mutex mu_;  ///< guards events_ and monitor wakeup
  std::condition_variable cv_;
  std::vector<HealthEvent> events_;
  std::atomic<u64> eventCount_{0};
  bool stopping_ = false;
  std::thread monitor_;
};

}  // namespace adres::obs
