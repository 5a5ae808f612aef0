#include "obs/watchdog.hpp"

#include <sstream>

#include "common/check.hpp"

namespace adres::obs {

const char* healthEventKindName(HealthEvent::Kind k) {
  switch (k) {
    case HealthEvent::Kind::kStalled: return "stalled";
    case HealthEvent::Kind::kBudgetExhausted: return "budget_exhausted";
  }
  return "unknown";
}

WorkerWatchdog::WorkerWatchdog(int numWorkers, WatchdogConfig cfg)
    : cfg_(cfg) {
  ADRES_CHECK(numWorkers >= 1, "watchdog needs at least one worker");
  health_.reserve(static_cast<std::size_t>(numWorkers));
  for (int i = 0; i < numWorkers; ++i)
    health_.push_back(std::make_unique<WorkerHealth>());
}

WorkerWatchdog::~WorkerWatchdog() { stop(); }

void WorkerWatchdog::start() {
  if (!cfg_.enabled || cfg_.pollMs <= 0 || monitor_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = false;
  }
  monitor_ = std::thread([this] { monitorLoop(); });
}

void WorkerWatchdog::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

void WorkerWatchdog::noteDecodeEnd(int worker, u64 jobId, StopReason stop,
                                   u64 cycles) {
  if (stop != StopReason::kMaxCycles) return;
  HealthEvent ev;
  ev.kind = HealthEvent::Kind::kBudgetExhausted;
  ev.worker = worker;
  ev.jobId = jobId;
  ev.cycles = cycles;
  std::ostringstream os;
  os << "worker " << worker << " job " << jobId << " stopped ("
     << stopReasonName(stop) << ") after " << cycles << " cycles";
  ev.detail = os.str();
  emit(std::move(ev));
}

std::vector<HealthEvent> WorkerWatchdog::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_;
}

void WorkerWatchdog::emit(HealthEvent ev) {
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back(std::move(ev));
  eventCount_.fetch_add(1, std::memory_order_relaxed);
}

void WorkerWatchdog::monitorLoop() {
  std::vector<Observed> obs(health_.size());
  const auto start = std::chrono::steady_clock::now();
  for (auto& o : obs) o.lastProgress = start;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (cv_.wait_for(lk, std::chrono::milliseconds(cfg_.pollMs),
                       [&] { return stopping_; }))
        return;
    }
    pollOnce(obs, std::chrono::steady_clock::now());
  }
}

void WorkerWatchdog::pollOnce(std::vector<Observed>& obs,
                              std::chrono::steady_clock::time_point now) {
  for (std::size_t i = 0; i < health_.size(); ++i) {
    WorkerHealth& h = *health_[i];
    Observed& o = obs[i];
    if (h.state.load(std::memory_order_acquire) !=
        static_cast<u32>(WorkerState::kBusy)) {
      // Idle/done workers are never stalled; re-arm for the next job.
      o.lastJob = WorkerHealth::kNoJob;
      o.lastProgress = now;
      o.stallReported = false;
      continue;
    }
    const u64 job = h.currentJob.load(std::memory_order_relaxed);
    const u64 beat = h.heartbeatCycles.load(std::memory_order_relaxed);
    if (job != o.lastJob) {
      o.lastJob = job;
      o.lastBeat = beat;
      o.lastProgress = now;
      o.stallReported = false;
    } else if (beat != o.lastBeat) {
      o.lastBeat = beat;
      o.lastProgress = now;
      o.stallReported = false;
    }
    const double idleMs =
        std::chrono::duration<double, std::milli>(now - o.lastProgress).count();
    if (!o.stallReported && cfg_.stallTimeoutMs > 0 &&
        idleMs >= cfg_.stallTimeoutMs) {
      o.stallReported = true;
      HealthEvent ev;
      ev.kind = HealthEvent::Kind::kStalled;
      ev.worker = static_cast<int>(i);
      ev.jobId = job;
      ev.cycles = beat;
      ev.sinceMs = idleMs;
      std::ostringstream os;
      os << "worker " << i << " job " << job << " made no progress for "
         << static_cast<long>(idleMs) << " ms (heartbeat " << beat
         << " cycles)";
      ev.detail = os.str();
      emit(std::move(ev));
    }
  }
}

}  // namespace adres::obs
