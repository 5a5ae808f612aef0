// PacketFarm: N independent simulated ADRES processors decoding a packet
// stream in parallel — the harness that makes the paper's 100 Mbps+
// throughput claim a measurable, scalable axis instead of a single-packet
// anecdote.
//
// Each worker thread owns a private RxSession (no simulator state is
// shared; the mapped program is shared read-only through the program
// cache), pulls RxJobs from a bounded MPMC queue (backpressure
// toward the submitter) and records RxOutcomes.  finish() closes the queue,
// drains it — accepted jobs are never dropped — joins the workers, and
// merges every worker's counter totals into one adres.counters.v1 aggregate
// dump with a `workers` field.  In ordered mode outcomes are returned
// sorted by job id, which — since each decode is a deterministic function
// of the waveform — makes an N-worker run bit-exact with the sequential
// baseline regardless of scheduling.
//
// Live observability (src/obs): every worker keeps telemetry (lock-free
// packet/cycle/op totals and log-linear latency and cycle histograms, plus
// a copy of its counter block refreshed after every packet) that
// registerMetrics() exposes through a MetricsRegistry — so a running farm
// can be scraped mid-flight by the embedded MetricsServer with zero effect
// on decoded output.  A
// WorkerWatchdog supervises decode heartbeats and turns stalls and budget
// exhaustion into structured HealthEvents instead of silent hangs; a
// decode's only early stop is its cycle budget.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/integrity.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/watchdog.hpp"
#include "platform/buffer_pool.hpp"
#include "platform/packet_queue.hpp"
#include "platform/rx_session.hpp"

namespace adres::platform {

/// One packet to decode: the per-antenna waveforms plus submitter metadata.
struct RxJob {
  u64 id = 0;  ///< submitter-chosen tag; ordered mode sorts outcomes by it
  u32 tag = 0;  ///< submitter context (campaign cell index), in the trace id
  std::array<std::vector<cint16>, 2> rx;
  double enqueueUs = 0;  ///< host µs on the farm epoch; set by submit()
  /// Per-job simulated-cycle budget; 0 = the farm default (FarmConfig::run).
  /// It only ever tightens the farm's budget, and the effective value is
  /// what the decode, the sentinel's audit and every bundle run under.  A
  /// decode that exhausts it stops with StopReason::kMaxCycles and flows
  /// through the watchdog's budget path (kBudgetExhausted health events) —
  /// the cell layer's deadline enforcement: cycles the packet may not spend
  /// are cycles it never simulates.
  u64 maxCycles = 0;
};

struct RxOutcome {
  u64 id = 0;
  int worker = -1;  ///< index of the worker that decoded this packet
  sdr::ProcessorRxResult result;
  double avgPowerMw = 0.0;  ///< activity-model average power of the decode
  double hostUs = 0.0;      ///< host wall-clock latency of the decode
  u64 traceId = 0;          ///< deterministic per-packet trace id
  double queueWaitUs = 0.0;  ///< host µs between submit and worker dispatch
};

struct FarmConfig {
  dsp::ModemConfig modem;
  int numWorkers = 1;
  std::size_t queueCapacity = 32;
  /// Sort outcomes by job id (deterministic, bit-exactness tests); false
  /// returns completion order.
  bool ordered = true;
  /// Per-packet run options.  trace is ignored by the farm (per-worker sinks
  /// would interleave); use stats() for aggregates.
  /// progressCycles is overwritten with the worker's heartbeat when the
  /// watchdog is enabled.
  /// run.profile folds per-launch cycle attribution into FarmStats::profile.
  sdr::RxRunOptions run;
  /// Worker health supervision (stall detection, budget-exhaustion events).
  obs::WatchdogConfig watchdog;
  /// Online divergence sentinel: deterministically sampled packets are
  /// shadow-decoded on the exec tier `run.exec.tier` does not use, under
  /// the packet's own cycle budget, and compared bit/cycle/counter-wise
  /// (DESIGN.md §16).  The shadow is a farm-private RxSession serialized by
  /// the sentinel, so primary decode results are unaffected; sampled
  /// packets pay one extra (shadow-tier) decode of host time.
  obs::SentinelConfig sentinel;
  /// Postmortem bundle capture, the one switch for bundles: when enabled,
  /// the farm retains the slowest packet's payload and writes
  /// adres.postmortem.v1 bundles on sentinel divergences, watchdog failures
  /// (non-halt stops) and capturePostmortem() calls (the SLO breach hook).
  /// Off, the farm writes no file and creates no directory.
  obs::PostmortemConfig postmortem;
  /// Test/fault-injection hook, run on the worker thread after the worker
  /// marks itself busy with the job and before the decode.  Observation
  /// must stay observation: the hook must not touch simulator state.
  std::function<void(int worker, const RxJob&)> preDecodeHook;
};

/// Aggregate statistics merged from every worker's session after finish().
struct FarmStats {
  int workers = 0;
  u64 packets = 0;
  trace::CounterBlock counters;
  std::map<int, RegionProfile> regions;  ///< per-region totals by region id
  std::vector<std::string> regionNames;  ///< the program's, for writeJson
  obs::HistogramSnapshot latencyNs;     ///< host decode latency, nanoseconds
  obs::HistogramSnapshot packetCycles;  ///< simulated cycles per packet
  obs::HistogramSnapshot queueWaitNs;   ///< submit-to-dispatch wait
  /// Host ns submitters spent blocked on a full queue (backpressure toward
  /// the traffic source — producer-limited when ~0, decode-limited when
  /// large; bench_farm reports it next to decode throughput).
  u64 submitBackpressureNs = 0;
  /// Merged cycle-attribution summary (empty unless run.profile).
  trace::ProfileSummary profile;

  /// adres.counters.v1 dump carrying the `workers` extension field.
  void writeJson(std::ostream& os) const;
};

class PacketFarm {
 public:
  explicit PacketFarm(FarmConfig cfg);
  ~PacketFarm();  // finishes (joining all workers) if the caller did not

  PacketFarm(const PacketFarm&) = delete;
  PacketFarm& operator=(const PacketFarm&) = delete;

  /// Enqueues a job; blocks while the queue is full.  Thread-safe: multiple
  /// producer threads may submit concurrently (sharded trial producers).
  /// Must not be called after finish().
  void submit(RxJob job);

  /// Convenience: submits with the next sequential id; returns that id.
  u64 submit(std::array<std::vector<cint16>, 2> rx);

  /// A recycled waveform buffer (capacity from a previously decoded
  /// packet's rx payload) for producers to fill — submit → decode →
  /// recycle forms a closed, allocation-free loop in steady state.
  std::vector<cint16> acquireSampleBuffer() { return samplePool_.acquire(); }
  /// Waveform buffers resting in the pool (telemetry/tests): bounded by
  /// the buffers in flight when every producer draws from the pool.
  std::size_t idleSampleBuffers() const { return samplePool_.idle(); }

  /// Blocks until every submitted job has an outcome, then returns and
  /// clears the outcome buffer (sorted by id in ordered mode).  The workers
  /// stay alive, so a submit/collect cycle can repeat — campaign batches
  /// reuse one farm instead of paying construction per batch.
  std::vector<RxOutcome> collect();

  /// Allocation-free collect: swaps the pending outcomes into `out`
  /// (cleared first, capacity kept), so the farm inherits the caller's
  /// storage for the next round.  Pair with recycleOutcomes().
  void collectInto(std::vector<RxOutcome>& out);

  /// Returns collected outcomes' payload buffers (decoded bits) to the
  /// farm's pools and clears `outs`, keeping its storage for the caller's
  /// next collectInto() round.
  void recycleOutcomes(std::vector<RxOutcome>& outs);

  /// Closes the queue, drains and joins the workers, merges their stats,
  /// and returns every outcome not already collect()ed.  A second call
  /// returns an empty vector.
  std::vector<RxOutcome> finish();

  /// Merged per-worker counters; populated by finish().
  const FarmStats& stats() const { return stats_; }
  const FarmConfig& config() const { return cfg_; }

  /// The slowest packet decoded so far (live; id() == 0 with no packets is
  /// indistinguishable from job 0 — check latencyUs > 0).
  struct SlowestPacket {
    u64 id = 0;
    u32 tag = 0;
    u64 traceId = 0;
    int worker = -1;
    double latencyUs = 0;
    double queueWaitUs = 0;
    u64 cycles = 0;
    /// The decode's per-region partition (the Table 2 view of where its
    /// cycles went); always kept, and copied without allocating once the
    /// map holds every region.
    std::map<int, RegionProfile> regions;
    /// Retained only with postmortem capture on: the payload, decode
    /// summary and cycle budget needed to freeze this packet into a bundle
    /// after the fact.
    std::array<std::vector<cint16>, 2> rx;
    obs::DecodeSummary summary;
    u64 maxCycles = 0;
  };
  SlowestPacket slowestPacket() const;

  // -- Self-auditing runtime (DESIGN.md §16) ---------------------------------

  /// The divergence sentinel; null unless cfg.sentinel.enabled.
  const obs::DivergenceSentinel* sentinel() const { return sentinel_.get(); }
  /// Divergences detected so far (0 with the sentinel off) — the source of
  /// adres_farm_divergences_total and the `divergences` SLO metric.
  u64 divergences() const { return sentinel_ ? sentinel_->divergences() : 0; }
  /// Structured divergence events recorded so far (empty with sentinel off).
  std::vector<obs::IntegrityEvent> integrityEvents() const {
    return sentinel_ ? sentinel_->events() : std::vector<obs::IntegrityEvent>{};
  }
  /// The bundle store; null unless cfg.postmortem.enabled.
  const obs::PostmortemWriter* postmortemWriter() const {
    return postmortems_.get();
  }

  /// Freezes the current slowest packet into an adres.postmortem.v1 bundle
  /// (the SLO-breach hook calls this).  Returns the bundle path, or "" when
  /// capture is off or no packet has been retained yet.  Safe from any
  /// thread.
  std::string capturePostmortem(const std::string& trigger,
                                const std::string& reason);

  /// Readiness: true once every worker has built its session (program
  /// fetched, plans resolved, program loaded) — the /readyz source.  On false, `reason`
  /// (when non-null) describes what is still warming.
  bool ready(std::string* reason = nullptr) const;

  // -- Live telemetry (safe from any thread, mid-flight) ---------------------

  std::size_t queueDepth() const { return queue_.size(); }
  u64 submitted() const { return submitted_.load(std::memory_order_relaxed); }
  /// Host ns submitters have spent blocked on a full queue so far (live).
  u64 submitBackpressureNs() const { return queue_.fullWaitNs(); }
  u64 packetsDone() const;
  /// Merged host-latency histogram (nanoseconds) across workers, live.
  obs::HistogramSnapshot latencySnapshot() const;
  /// Merged per-packet simulated-cycle histogram across workers, live.
  obs::HistogramSnapshot cycleSnapshot() const;
  /// Merged submit-to-dispatch queue-wait histogram (nanoseconds), live.
  obs::HistogramSnapshot queueWaitSnapshot() const;
  /// Farm-wide sim counter totals: the sum of every worker's counter block,
  /// which each worker refreshes after every packet and before recording
  /// its outcome — so once collect() returns, this covers every collected
  /// packet exactly.
  trace::CounterBlock liveCounters() const;

  const obs::WorkerWatchdog& watchdog() const { return *watchdog_; }
  std::vector<obs::HealthEvent> healthEvents() const {
    return watchdog_->events();
  }

  /// Registers every farm series on `reg`: queue depth, submitted/done
  /// packets, per-worker packets/utilization/IPC/state, merged latency and
  /// cycle summaries, health-event count, and the farm-wide sim counters
  /// (as adres_sim_counter{name=...}).  The farm must outlive `reg`, or
  /// reg.clear() must run before the farm is destroyed.
  void registerMetrics(obs::MetricsRegistry& reg) const;

 private:
  /// Per-worker live telemetry; single writer (the worker), readers on any
  /// thread (metrics scrapes): lock-free histograms, plus the session's
  /// counter block copied under `mu`.  The per-worker series derive from
  /// these alone: packets = latencyNs.count(), busy time = latencyNs.sum(),
  /// simulated cycles = packetCycles.sum(), simulated ops = the block's
  /// vliw.ops + cga.ops.
  struct WorkerTelemetry {
    obs::LogLinearHistogram latencyNs;
    obs::LogLinearHistogram packetCycles;
    obs::LogLinearHistogram queueWaitNs;

    trace::CounterBlock counters() const {
      std::lock_guard<std::mutex> lk(mu);
      return counters_;
    }
    void setCounters(const trace::CounterBlock& c) {
      std::lock_guard<std::mutex> lk(mu);
      counters_ = c;
    }

   private:
    mutable std::mutex mu;
    trace::CounterBlock counters_;
  };

  void workerMain(int idx);
  /// The bundle of one packet, shared by every trigger path.
  obs::PostmortemBundle bundleFor(const std::string& trigger,
                                  const std::string& reason,
                                  const obs::DecodedPacket& p) const;

  FarmConfig cfg_;
  BoundedQueue<RxJob> queue_;
  /// Recycled payload storage: rx waveforms return here after the decode's
  /// DMA (workers release, producers acquire); decoded-bit buffers cycle
  /// through recycleOutcomes().  Both loops are allocation-free once warm.
  BufferPool<cint16> samplePool_;
  BufferPool<u8> bitPool_;
  std::unique_ptr<obs::WorkerWatchdog> watchdog_;
  std::unique_ptr<obs::PostmortemWriter> postmortems_;
  /// The shared mapped program: region names for stats().
  std::shared_ptr<const sdr::ModemOnProcessor> modem_;
  /// The sentinel's shadow decoder: a session on the held-back tier
  /// (farm-private; calls serialized by the sentinel).
  std::unique_ptr<RxSession> shadow_;
  std::unique_ptr<obs::DivergenceSentinel> sentinel_;
  std::atomic<int> workersReady_{0};  ///< workers whose session is built
  std::vector<std::unique_ptr<WorkerTelemetry>> telemetry_;
  std::vector<std::thread> threads_;
  std::chrono::steady_clock::time_point startTime_;
  std::atomic<u64> nextId_{0};  ///< monotone watermark; submit() is MT-safe
  std::atomic<u64> submitted_{0};
  bool finished_ = false;

  std::mutex mu_;  ///< guards outcomes_ and workerStats_ while running
  std::condition_variable outcomeCv_;  ///< signalled per recorded outcome
  u64 collected_ = 0;  ///< outcomes already handed out by collect()
  std::vector<RxOutcome> outcomes_;
  std::vector<SessionStats> workerStats_;
  FarmStats stats_;

  mutable std::mutex slowMu_;  ///< guards slowest_
  SlowestPacket slowest_;
};

}  // namespace adres::platform
