#include "platform/packet_farm.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cga/exec_tier.hpp"
#include "common/hash.hpp"
#include "power/energy_model.hpp"

namespace adres::platform {

void FarmStats::writeJson(std::ostream& os) const {
  trace::writeCountersJson(os, counters, regions, regionNames, workers);
}

PacketFarm::PacketFarm(FarmConfig cfg)
    : cfg_(std::move(cfg)), queue_(cfg_.queueCapacity) {
  ADRES_CHECK(cfg_.numWorkers >= 1, "farm needs at least one worker");
  // Heartbeats are per worker, wired in workerMain.
  cfg_.run.progressCycles = nullptr;
  if (cfg_.postmortem.enabled)
    postmortems_ = std::make_unique<obs::PostmortemWriter>(cfg_.postmortem);
  workerStats_.resize(static_cast<std::size_t>(cfg_.numWorkers));
  watchdog_ = std::make_unique<obs::WorkerWatchdog>(cfg_.numWorkers,
                                                    cfg_.watchdog);
  telemetry_.reserve(static_cast<std::size_t>(cfg_.numWorkers));
  for (int i = 0; i < cfg_.numWorkers; ++i)
    telemetry_.push_back(std::make_unique<WorkerTelemetry>());
  startTime_ = std::chrono::steady_clock::now();
  // Build (or fetch) the shared program before spawning so workers never
  // race on the expensive first build and startup cost is paid once.
  modem_ = modemProgramFor(cfg_.modem);
  if (cfg_.sentinel.enabled) {
    // The shadow decodes clean (no fault seed) on the other tier, each
    // audit under its packet's budget.  Its session pays the one cold
    // program load here rather than in the first audit, which would stall
    // its worker for it.
    sdr::RxRunOptions shadowRun;
    shadowRun.exec.tier = obs::shadowTierFor(cfg_.run.exec.tier);
    shadow_ = std::make_unique<RxSession>(cfg_.modem, shadowRun);
    sentinel_ = std::make_unique<obs::DivergenceSentinel>(
        cfg_.sentinel, cfg_.run.exec.tier,
        [this](const obs::DecodedPacket& p) {
          sdr::ProcessorRxResult res;
          shadow_->decodeInto(p.rx, res, p.maxCycles);
          return shadow_->summarize(res);
        });
    if (postmortems_) {
      sentinel_->setBundleFn([this](const obs::IntegrityEvent& ev,
                                    const obs::DecodedPacket& p,
                                    const obs::DecodeSummary& shadow) {
        obs::PostmortemBundle b = bundleFor("divergence", ev.detail, p);
        b.shadowTier = ev.shadowTier;
        b.shadow = shadow;
        return postmortems_->write(b);
      });
    }
  }
  watchdog_->start();
  threads_.reserve(static_cast<std::size_t>(cfg_.numWorkers));
  for (int i = 0; i < cfg_.numWorkers; ++i)
    threads_.emplace_back([this, i] { workerMain(i); });
}

PacketFarm::~PacketFarm() { (void)finish(); }

void PacketFarm::submit(RxJob job) {
  ADRES_CHECK(!finished_, "submit after finish()");
  // Advance the id watermark to max(nextId_, job.id + 1); CAS loop because
  // sharded producers submit concurrently with explicit ids.
  u64 seen = nextId_.load(std::memory_order_relaxed);
  while (seen < job.id + 1 &&
         !nextId_.compare_exchange_weak(seen, job.id + 1,
                                        std::memory_order_relaxed)) {
  }
  job.enqueueUs = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - startTime_)
                      .count();
  const bool accepted = queue_.push(std::move(job));
  ADRES_CHECK(accepted, "queue closed while submitting");
  submitted_.fetch_add(1, std::memory_order_relaxed);
}

u64 PacketFarm::submit(std::array<std::vector<cint16>, 2> rx) {
  RxJob job;
  job.id = nextId_.fetch_add(1, std::memory_order_relaxed);
  job.rx = std::move(rx);
  const u64 id = job.id;
  submit(std::move(job));
  return id;
}

std::vector<RxOutcome> PacketFarm::collect() {
  std::vector<RxOutcome> out;
  collectInto(out);
  return out;
}

void PacketFarm::collectInto(std::vector<RxOutcome>& out) {
  ADRES_CHECK(!finished_, "collect after finish()");
  out.clear();
  // Only the submitting side calls collect, after its submits, so
  // submitted_ is stable here.
  const u64 want = submitted_.load(std::memory_order_relaxed) - collected_;
  std::unique_lock<std::mutex> lk(mu_);
  outcomeCv_.wait(lk, [&] { return outcomes_.size() >= want; });
  collected_ += outcomes_.size();
  // Swap storage instead of moving it away: the caller's previous-round
  // capacity becomes the farm's next outcome buffer (closed loop, no
  // steady-state growth allocations).
  std::swap(out, outcomes_);
  lk.unlock();
  if (cfg_.ordered) {
    std::sort(out.begin(), out.end(),
              [](const RxOutcome& a, const RxOutcome& b) { return a.id < b.id; });
  }
}

void PacketFarm::recycleOutcomes(std::vector<RxOutcome>& outs) {
  for (RxOutcome& o : outs) bitPool_.release(std::move(o.result.bits));
  outs.clear();
}

std::vector<RxOutcome> PacketFarm::finish() {
  if (finished_) return {};
  finished_ = true;
  queue_.close();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  watchdog_->stop();  // after the join: no more heartbeats to observe

  stats_ = FarmStats{};
  stats_.workers = cfg_.numWorkers;
  SessionStats merged;
  for (const SessionStats& s : workerStats_) merged.merge(s);
  stats_.packets = merged.packets;
  stats_.counters = merged.counters;
  stats_.regions = std::move(merged.regions);
  stats_.regionNames = modem_->program.regionNames;
  stats_.latencyNs = latencySnapshot();
  stats_.packetCycles = cycleSnapshot();
  stats_.queueWaitNs = queueWaitSnapshot();
  stats_.submitBackpressureNs = queue_.fullWaitNs();
  stats_.profile = std::move(merged.profile);

  if (cfg_.ordered) {
    std::sort(outcomes_.begin(), outcomes_.end(),
              [](const RxOutcome& a, const RxOutcome& b) { return a.id < b.id; });
  }
  return std::move(outcomes_);
}

u64 PacketFarm::packetsDone() const {
  u64 n = 0;
  for (const auto& t : telemetry_) n += t->latencyNs.count();
  return n;
}

obs::HistogramSnapshot PacketFarm::latencySnapshot() const {
  obs::HistogramSnapshot merged;
  for (const auto& t : telemetry_) merged.merge(t->latencyNs.snapshot());
  return merged;
}

obs::HistogramSnapshot PacketFarm::cycleSnapshot() const {
  obs::HistogramSnapshot merged;
  for (const auto& t : telemetry_) merged.merge(t->packetCycles.snapshot());
  return merged;
}

obs::HistogramSnapshot PacketFarm::queueWaitSnapshot() const {
  obs::HistogramSnapshot merged;
  for (const auto& t : telemetry_) merged.merge(t->queueWaitNs.snapshot());
  return merged;
}

PacketFarm::SlowestPacket PacketFarm::slowestPacket() const {
  std::lock_guard<std::mutex> lk(slowMu_);
  return slowest_;
}

obs::PostmortemBundle PacketFarm::bundleFor(
    const std::string& trigger, const std::string& reason,
    const obs::DecodedPacket& p) const {
  obs::PostmortemBundle b;
  b.trigger = trigger;
  b.reason = reason;
  b.jobId = p.jobId;
  b.tag = p.tag;
  b.worker = p.worker;
  b.traceId = p.traceId;
  b.modulation = static_cast<int>(cfg_.modem.mod);
  b.numSymbols = cfg_.modem.numSymbols;
  b.execTier = execTierName(cfg_.run.exec.tier);
  b.maxCycles = p.maxCycles;
  b.faultInjectSeed = cfg_.run.faultInjectBitFlipSeed;
  b.rx = p.rx;
  b.primary = p.primary;
  return b;
}

std::string PacketFarm::capturePostmortem(const std::string& trigger,
                                          const std::string& reason) {
  if (!postmortems_) return "";
  const SlowestPacket slow = slowestPacket();
  if (slow.rx[0].empty()) return "";  // no packet retained yet
  return postmortems_->write(bundleFor(
      trigger, reason,
      {slow.id, slow.tag, slow.worker, slow.traceId, slow.maxCycles, slow.rx,
       slow.summary}));
}

bool PacketFarm::ready(std::string* reason) const {
  const int warm = workersReady_.load(std::memory_order_acquire);
  if (warm >= cfg_.numWorkers) return true;
  if (reason) {
    *reason = std::to_string(warm) + "/" + std::to_string(cfg_.numWorkers) +
              " workers warm";
  }
  return false;
}

trace::CounterBlock PacketFarm::liveCounters() const {
  trace::CounterBlock out;
  for (const auto& t : telemetry_) out += t->counters();
  return out;
}

void PacketFarm::registerMetrics(obs::MetricsRegistry& reg) const {
  reg.addGauge("adres_farm_workers", "configured worker count",
               [this] { return static_cast<double>(cfg_.numWorkers); });
  reg.addGauge("adres_farm_queue_depth", "jobs waiting in the bounded queue",
               [this] { return static_cast<double>(queueDepth()); });
  reg.addGauge("adres_farm_queue_capacity", "bounded queue capacity",
               [this] { return static_cast<double>(queue_.capacity()); });
  reg.addCounter("adres_farm_packets_submitted_total", "jobs accepted",
                 [this] { return static_cast<double>(submitted()); });
  reg.addCounter("adres_farm_packets_done_total", "decodes completed",
                 [this] { return static_cast<double>(packetsDone()); });
  reg.addCounter("adres_farm_submit_backpressure_us_total",
                 "host µs submitters spent blocked on a full queue",
                 [this] {
                   return static_cast<double>(submitBackpressureNs()) * 1e-3;
                 });
  reg.addCounter("adres_farm_health_events_total",
                 "watchdog health events (stalls, budget overruns)",
                 [this] { return static_cast<double>(watchdog_->eventCount()); });
  // Self-auditing series.  The sentinel/divergence counters are registered
  // unconditionally (0 with the sentinel off) so SLO specs and dashboards
  // can rely on the series existing.
  reg.addCounter("adres_farm_sentinel_sampled_total",
                 "packets shadow-decoded by the divergence sentinel",
                 [this] {
                   return sentinel_
                              ? static_cast<double>(sentinel_->sampled())
                              : 0.0;
                 });
  reg.addCounter("adres_farm_divergences_total",
                 "primary/shadow decode divergences detected by the sentinel",
                 [this] { return static_cast<double>(divergences()); });
  reg.addCounter("adres_farm_postmortem_bundles_total",
                 "adres.postmortem.v1 bundles written",
                 [this] {
                   return postmortems_
                              ? static_cast<double>(postmortems_->written())
                              : 0.0;
                 });
  reg.addGauge("adres_farm_ready",
               "1 once every worker is warm (the /readyz source)",
               [this] { return ready() ? 1.0 : 0.0; });
  reg.addGauge("adres_farm_uptime_seconds", "host seconds since farm start",
               [this] {
                 return std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - startTime_)
                     .count();
               });
  for (int w = 0; w < cfg_.numWorkers; ++w) {
    const obs::Labels labels{{"worker", std::to_string(w)}};
    const WorkerTelemetry* t = telemetry_[static_cast<std::size_t>(w)].get();
    const obs::WorkerHealth* h = &watchdog_->health(w);
    reg.addCounter("adres_farm_worker_packets_total", "decodes by worker",
                   [t] { return static_cast<double>(t->latencyNs.count()); },
                   labels);
    reg.addCounter("adres_farm_worker_sim_cycles_total",
                   "simulated cycles decoded by worker",
                   [t] { return static_cast<double>(t->packetCycles.sum()); },
                   labels);
    reg.addGauge("adres_farm_worker_utilization",
                 "fraction of farm uptime spent decoding",
                 [this, t] {
                   const double up =
                       std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - startTime_)
                           .count();
                   return up > 0 ? static_cast<double>(t->latencyNs.sum()) / up
                                 : 0.0;
                 },
                 labels);
    reg.addGauge("adres_farm_worker_ipc",
                 "simulated ops per simulated cycle across worker decodes",
                 [t] {
                   const trace::CounterBlock c = t->counters();
                   const double cycles =
                       static_cast<double>(t->packetCycles.sum());
                   return cycles > 0
                              ? static_cast<double>(
                                    c[trace::Counter::kVliwOps] +
                                    c[trace::Counter::kCgaOps]) /
                                    cycles
                              : 0.0;
                 },
                 labels);
    reg.addGauge("adres_farm_worker_state",
                 "0 = idle, 1 = busy, 2 = done",
                 [h] {
                   return static_cast<double>(
                       h->state.load(std::memory_order_relaxed));
                 },
                 labels);
    reg.addGauge("adres_farm_worker_heartbeat_cycles",
                 "sim cycles of the in-flight decode (watchdog heartbeat)",
                 [h] {
                   return static_cast<double>(
                       h->heartbeatCycles.load(std::memory_order_relaxed));
                 },
                 labels);
  }
  reg.addSummary("adres_farm_latency_host_us",
                 "host wall-clock decode latency (merged across workers)",
                 1e-3 /* ns -> us */, [this] { return latencySnapshot(); });
  reg.addSummary("adres_farm_packet_cycles",
                 "simulated cycles per decoded packet (merged across workers)",
                 1.0, [this] { return cycleSnapshot(); });
  reg.addSummary("adres_farm_queue_wait_us",
                 "host submit-to-dispatch queue wait (merged across workers)",
                 1e-3 /* ns -> us */, [this] { return queueWaitSnapshot(); });
  reg.addGauge("adres_farm_slowest_packet_id", "job id of the slowest decode",
               [this] { return static_cast<double>(slowestPacket().id); });
  reg.addGauge("adres_farm_slowest_packet_worker",
               "worker index of the slowest decode", [this] {
                 return static_cast<double>(slowestPacket().worker);
               });
  reg.addGauge("adres_farm_slowest_packet_latency_us",
               "host latency of the slowest decode",
               [this] { return slowestPacket().latencyUs; });
  reg.addGauge("adres_farm_slowest_packet_queue_wait_us",
               "queue wait of the slowest decode",
               [this] { return slowestPacket().queueWaitUs; });
  reg.addGauge("adres_farm_slowest_packet_cycles",
               "simulated cycles of the slowest decode", [this] {
                 return static_cast<double>(slowestPacket().cycles);
               });
  // Region-level breakdown of the slowest packet: its decode's partition.
  reg.addGaugeFamily(
      "adres_farm_slowest_packet_region_cycles",
      "per-region simulated cycles of the slowest decode", [this] {
        const SlowestPacket slow = slowestPacket();
        std::vector<std::pair<obs::Labels, double>> out;
        for (const auto& [id, rp] : slow.regions)
          out.push_back(
              {obs::Labels{{"region",
                            regionName(modem_->program.regionNames, id)}},
               static_cast<double>(rp.cycles)});
        return out;
      });
  // Farm-wide sim counter totals (the adres.counters.v1 key set) as one
  // labelled family, summed live from every worker's counter block.
  reg.addCounterFamily(
      "adres_sim_counter", "farm-wide simulator counter totals", [this] {
        const trace::CounterBlock totals = liveCounters();
        std::vector<std::pair<obs::Labels, double>> out;
        for (std::size_t i = 0; i < trace::kNumCounters; ++i)
          out.push_back(
              {obs::Labels{{"name", std::string(trace::kCounterNames[i])}},
               static_cast<double>(totals.values[i])});
        return out;
      });
}

void PacketFarm::workerMain(int idx) {
  using Clock = std::chrono::steady_clock;
  obs::WorkerHealth& health = watchdog_->health(idx);
  WorkerTelemetry& tele = *telemetry_[static_cast<std::size_t>(idx)];
  sdr::RxRunOptions opts = cfg_.run;
  if (cfg_.watchdog.enabled) opts.progressCycles = &health.heartbeatCycles;
  RxSession session(cfg_.modem, opts);
  // Session built: program fetched from the cache, plans resolved, program
  // loaded — this worker can take traffic (the /readyz source).
  workersReady_.fetch_add(1, std::memory_order_release);
  while (std::optional<RxJob> job = queue_.pop()) {
    health.beginJob(job->id);
    const double dispatchUs = std::chrono::duration<double, std::micro>(
                                  Clock::now() - startTime_)
                                  .count();
    if (cfg_.preDecodeHook) cfg_.preDecodeHook(idx, *job);
    RxOutcome out;
    out.id = job->id;
    out.worker = idx;
    out.result.bits = bitPool_.acquire();  // recycled decoded-bit capacity
    // The packet's cycle budget, computed once: the decode, the sentinel's
    // audit and every bundle run under it.  A per-job cap only ever
    // tightens the farm's.
    const u64 budget = job->maxCycles != 0
                           ? std::min(job->maxCycles, cfg_.run.maxCycles)
                           : cfg_.run.maxCycles;
    const auto t0 = Clock::now();
    session.decodeInto(job->rx, out.result, budget);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    out.hostUs = ns / 1000.0;
    out.avgPowerMw = power::averageActiveMw(session.processor());
    out.traceId = packetTraceId(job->id, job->tag);
    out.queueWaitUs = std::max(0.0, dispatchUs - job->enqueueUs);
    // The rx payloads are dead once the decode's DMA has read them — UNLESS
    // the self-auditing layer still needs them: the packet is audited, or the
    // bundle store exists (failure bundle, slowest-packet retention).  The
    // common path releases here so the producer recycle loop keeps its
    // allocation-free timing.
    const bool auditThis = sentinel_ && sentinel_->shouldSample(out.traceId);
    const bool retainPayload = auditThis || postmortems_ != nullptr;
    if (!retainPayload) {
      samplePool_.release(std::move(job->rx[0]));
      samplePool_.release(std::move(job->rx[1]));
    }

    tele.latencyNs.record(static_cast<u64>(ns));
    tele.packetCycles.record(out.result.cycles);
    tele.queueWaitNs.record(static_cast<u64>(out.queueWaitUs * 1000.0));
    // A 256-byte copy, before the outcome is recorded: live counters are
    // exact for every packet collect() has returned.
    tele.setCounters(session.stats().counters);

    // Self-auditing: summarize the primary decode once for whichever of the
    // sentinel audit / failure bundle / slowest-packet retention needs it.
    obs::DecodeSummary primary;
    if (retainPayload) {
      primary = session.summarize(out.result);
      const obs::DecodedPacket pkt{job->id, job->tag, idx, out.traceId,
                                   budget, job->rx, primary};
      if (auditThis) (void)sentinel_->audit(pkt);
      if (postmortems_ && out.result.stop != StopReason::kHalt) {
        (void)postmortems_->write(bundleFor(
            "watchdog",
            "decode stopped without halting (" + primary.stop + ")", pkt));
      }
    }
    {
      std::lock_guard<std::mutex> lk(slowMu_);
      if (out.hostUs > slowest_.latencyUs) {
        slowest_.id = out.id;
        slowest_.tag = job->tag;
        slowest_.traceId = out.traceId;
        slowest_.worker = idx;
        slowest_.latencyUs = out.hostUs;
        slowest_.queueWaitUs = out.queueWaitUs;
        slowest_.cycles = out.result.cycles;
        slowest_.regions = session.processor().profiles();
        if (postmortems_) {  // what capturePostmortem() freezes
          slowest_.rx = job->rx;
          slowest_.summary = primary;
          slowest_.maxCycles = budget;
        }
      }
    }
    if (retainPayload) {
      samplePool_.release(std::move(job->rx[0]));
      samplePool_.release(std::move(job->rx[1]));
    }
    watchdog_->noteDecodeEnd(idx, job->id, out.result.stop, out.result.cycles);
    health.endJob();

    {
      std::lock_guard<std::mutex> lk(mu_);
      outcomes_.push_back(std::move(out));
    }
    outcomeCv_.notify_all();
  }
  health.state.store(static_cast<u32>(obs::WorkerState::kDone),
                     std::memory_order_release);
  std::lock_guard<std::mutex> lk(mu_);
  workerStats_[static_cast<std::size_t>(idx)] = session.stats();
}

}  // namespace adres::platform
