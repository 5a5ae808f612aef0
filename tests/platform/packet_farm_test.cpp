// Packet farm: program-build cache identity, N-worker bit-exactness vs the
// sequential baseline (bits, cycles, merged counters), lossless
// close-then-drain shutdown, and live telemetry (mid-flight HTTP scrapes
// must not perturb decoded output).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "dsp/channel.hpp"
#include "obs/metrics_server.hpp"
#include "platform/packet_farm.hpp"

namespace adres::platform {
namespace {

dsp::ModemConfig smallConfig() {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 2;
  return cfg;
}

/// A decodable packet through a clean per-index channel (error-free at
/// 40 dB so decoded bits must equal the transmitted payload exactly);
/// returns waveforms and golden payload bits.
std::pair<std::array<std::vector<cint16>, 2>, std::vector<u8>> makePacket(
    const dsp::ModemConfig& cfg, int index) {
  Rng rng(100 + static_cast<u64>(index));
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.cfoPpm = 6;
  cc.seed = static_cast<u64>(index + 1);
  dsp::MimoChannel ch(cc);
  return {ch.run(pkt.waveform), pkt.bits};
}

TEST(RxSessionCache, IdenticalConfigsShareOneMappedProgram) {
  const dsp::ModemConfig cfg = smallConfig();
  const auto a = modemProgramFor(cfg);
  const auto b = modemProgramFor(cfg);
  EXPECT_EQ(a.get(), b.get()) << "same config must reuse the mapped program";

  dsp::ModemConfig other = cfg;
  other.numSymbols = 4;
  const auto c = modemProgramFor(other);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->numSymbols, 4);
  EXPECT_EQ(a->config.numSymbols, cfg.numSymbols);
}

TEST(RxSession, AccumulatesStatsAcrossPackets) {
  const dsp::ModemConfig cfg = smallConfig();
  const auto [rx, bits] = makePacket(cfg, 0);
  RxSession session(cfg);
  const auto r1 = session.decode(rx);
  const auto r2 = session.decode(rx);
  EXPECT_TRUE(r1.halted());
  EXPECT_EQ(r1.bits, r2.bits) << "session reuse is deterministic";
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(session.stats().packets, 2u);
  EXPECT_EQ(session.stats().counters[trace::Counter::kCoreCycles],
            r1.cycles + r2.cycles);
}

TEST(PacketFarm, OrderedNWorkerRunIsBitExactWithSequentialBaseline) {
  const dsp::ModemConfig cfg = smallConfig();
  constexpr int kPackets = 6;
  std::vector<std::array<std::vector<cint16>, 2>> waves;
  std::vector<std::vector<u8>> golden;
  for (int i = 0; i < kPackets; ++i) {
    auto [rx, bits] = makePacket(cfg, i);
    waves.push_back(std::move(rx));
    golden.push_back(std::move(bits));
  }

  // Sequential baseline: one session, packets in submit order.
  RxSession seq(cfg);
  std::vector<sdr::ProcessorRxResult> base;
  for (const auto& rx : waves) base.push_back(seq.decode(rx));

  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 4;
  fc.queueCapacity = 4;
  fc.ordered = true;
  PacketFarm farm(fc);
  for (const auto& rx : waves) (void)farm.submit(rx);
  const std::vector<RxOutcome> outs = farm.finish();

  ASSERT_EQ(outs.size(), static_cast<std::size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    const auto& o = outs[static_cast<std::size_t>(i)];
    const auto& b = base[static_cast<std::size_t>(i)];
    EXPECT_EQ(o.id, static_cast<u64>(i)) << "ordered mode sorts by job id";
    EXPECT_TRUE(o.result.halted());
    EXPECT_EQ(o.result.detected, b.detected);
    EXPECT_EQ(o.result.ltfStart, b.ltfStart);
    EXPECT_EQ(o.result.bits, b.bits) << "packet " << i;
    EXPECT_EQ(o.result.cycles, b.cycles) << "packet " << i;
    EXPECT_EQ(o.result.bits, golden[static_cast<std::size_t>(i)])
        << "decode matches the transmitted payload";
  }

  // Counter sums merged across workers equal the sequential totals.
  const FarmStats& fs = farm.stats();
  EXPECT_EQ(fs.workers, 4);
  EXPECT_EQ(fs.packets, static_cast<u64>(kPackets));
  EXPECT_EQ(fs.counters, seq.stats().counters);
  EXPECT_EQ(fs.regions, seq.stats().regions);

  // The aggregate dump carries the schema and the workers extension field.
  std::ostringstream os;
  fs.writeJson(os);
  EXPECT_NE(os.str().find("\"schema\": \"adres.counters.v1\""), std::string::npos);
  EXPECT_NE(os.str().find("\"workers\": 4"), std::string::npos);
}

TEST(PacketFarm, LiveSimCountersAreExactAfterCollect) {
  const dsp::ModemConfig cfg = smallConfig();
  constexpr int kPackets = 6;
  std::vector<std::array<std::vector<cint16>, 2>> waves;
  for (int i = 0; i < kPackets; ++i) waves.push_back(makePacket(cfg, i).first);

  RxSession seq(cfg);
  for (const auto& rx : waves) (void)seq.decode(rx);

  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 3;
  obs::MetricsRegistry reg;
  PacketFarm farm(fc);
  farm.registerMetrics(reg);
  for (const auto& rx : waves) (void)farm.submit(rx);
  ASSERT_EQ(farm.collect().size(), static_cast<std::size_t>(kPackets));

  // No finish(): the workers are alive, and every collected packet is
  // already in the live totals.
  EXPECT_EQ(farm.liveCounters(), seq.stats().counters);
  std::ostringstream os;
  reg.writePrometheus(os);
  const std::string line = "adres_sim_counter{name=\"core.cycles\"} ";
  const std::string text = os.str();
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos) << text;
  const u64 cycles = seq.stats().counters[trace::Counter::kCoreCycles];
  EXPECT_EQ(std::stod(text.substr(at + line.size())),
            static_cast<double>(cycles));

  reg.clear();  // teardown barrier before the farm dies
}

TEST(PacketFarm, ZeroPacketFarmDumpsEveryCounterAtZero) {
  FarmConfig fc;
  fc.modem = smallConfig();
  fc.numWorkers = 2;
  PacketFarm farm(fc);
  EXPECT_TRUE(farm.finish().empty());
  std::ostringstream os;
  farm.stats().writeJson(os);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"schema\": \"adres.counters.v1\",\n"
            "  \"workers\": 2,\n"
            "  \"counters\": {\n"
            "    \"cdrf.cga_accesses\": 0,\n"
            "    \"cdrf.reads\": 0,\n"
            "    \"cdrf.writes\": 0,\n"
            "    \"cfgmem.context_fetches\": 0,\n"
            "    \"cfgmem.dma_bytes\": 0,\n"
            "    \"cga.cycles\": 0,\n"
            "    \"cga.ops\": 0,\n"
            "    \"cga.route_moves\": 0,\n"
            "    \"cga.stall_cycles\": 0,\n"
            "    \"core.cycles\": 0,\n"
            "    \"cprf.reads\": 0,\n"
            "    \"cprf.writes\": 0,\n"
            "    \"dma.core_cycles\": 0,\n"
            "    \"dma.transfers\": 0,\n"
            "    \"dma.words\": 0,\n"
            "    \"icache.accesses\": 0,\n"
            "    \"icache.misses\": 0,\n"
            "    \"l1.bank_conflict_cycles\": 0,\n"
            "    \"l1.bank_conflicts\": 0,\n"
            "    \"l1.cga_accesses\": 0,\n"
            "    \"l1.reads\": 0,\n"
            "    \"l1.writes\": 0,\n"
            "    \"lrf.reads\": 0,\n"
            "    \"lrf.writes\": 0,\n"
            "    \"mode.switches\": 0,\n"
            "    \"ops16\": 0,\n"
            "    \"simd.ops\": 0,\n"
            "    \"sleep.cycles\": 0,\n"
            "    \"transports\": 0,\n"
            "    \"vliw.cycles\": 0,\n"
            "    \"vliw.ops\": 0,\n"
            "    \"vliw.stall_cycles\": 0\n"
            "  },\n"
            "  \"groups\": {\n"
            "    \"region\": {\n"
            "    }\n"
            "  }\n"
            "}\n");
}

TEST(PacketFarm, CollectSupportsRepeatedBatchesOnOneFarm) {
  const dsp::ModemConfig cfg = smallConfig();
  const auto [rx, bits] = makePacket(cfg, 0);

  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 2;
  fc.queueCapacity = 2;
  fc.ordered = true;
  PacketFarm farm(fc);

  // Two submit/collect rounds on the same workers (the campaign batch
  // pattern), then a final finish() that must return nothing new.
  for (int round = 0; round < 2; ++round) {
    const int kBatch = 3;
    for (int i = 0; i < kBatch; ++i) {
      RxJob job;
      job.id = static_cast<u64>(round * 100 + i);
      job.rx = rx;
      farm.submit(std::move(job));
    }
    const std::vector<RxOutcome> outs = farm.collect();
    ASSERT_EQ(outs.size(), static_cast<std::size_t>(kBatch)) << "round " << round;
    for (int i = 0; i < kBatch; ++i) {
      EXPECT_EQ(outs[static_cast<std::size_t>(i)].id,
                static_cast<u64>(round * 100 + i))
          << "ordered collect sorts by id";
      EXPECT_EQ(outs[static_cast<std::size_t>(i)].result.bits, bits);
    }
  }
  EXPECT_TRUE(farm.collect().empty()) << "collect with nothing pending";
  EXPECT_TRUE(farm.finish().empty()) << "everything was already collected";
  EXPECT_EQ(farm.stats().packets, 6u);
}

TEST(PacketFarm, ShutdownDrainsQueueWithoutLosingJobs) {
  const dsp::ModemConfig cfg = smallConfig();
  const auto [rx, bits] = makePacket(cfg, 0);
  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 2;
  fc.queueCapacity = 2;  // most jobs wait in (or for) the queue at finish()
  fc.ordered = false;
  PacketFarm farm(fc);
  constexpr int kJobs = 10;
  for (int i = 0; i < kJobs; ++i) (void)farm.submit(rx);
  const std::vector<RxOutcome> outs = farm.finish();

  ASSERT_EQ(outs.size(), static_cast<std::size_t>(kJobs))
      << "close-then-drain must decode every accepted job";
  std::set<u64> ids;
  for (const auto& o : outs) {
    ids.insert(o.id);
    EXPECT_EQ(o.result.bits, outs.front().result.bits)
        << "identical waveforms decode identically on any worker";
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kJobs)) << "no duplicates";
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), static_cast<u64>(kJobs - 1));

  EXPECT_TRUE(farm.finish().empty()) << "finish() is idempotent";
}

TEST(PacketFarm, LiveMetricsScrapeIsBitExactAndExposesFarmSeries) {
  const dsp::ModemConfig cfg = smallConfig();
  constexpr int kPackets = 6;
  std::vector<std::array<std::vector<cint16>, 2>> waves;
  for (int i = 0; i < kPackets; ++i)
    waves.push_back(makePacket(cfg, i).first);

  // Baseline: same farm shape, no metrics attached.
  std::vector<RxOutcome> base;
  {
    FarmConfig fc;
    fc.modem = cfg;
    fc.numWorkers = 3;
    PacketFarm farm(fc);
    for (const auto& rx : waves) (void)farm.submit(rx);
    base = farm.finish();
  }

  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 3;
  fc.watchdog.pollMs = 2;  // aggressive supervision while we scrape
  obs::MetricsRegistry reg;
  PacketFarm farm(fc);
  farm.registerMetrics(reg);
  obs::MetricsServer server(reg, 0);

  // Scrape over real HTTP between submissions — mid-flight observation.
  int scrapes = 0;
  for (const auto& rx : waves) {
    (void)farm.submit(rx);
    const std::string text = obs::httpGet("127.0.0.1", server.port(), "/metrics");
    if (!text.empty()) ++scrapes;
  }
  const std::vector<RxOutcome> outs = farm.finish();
  EXPECT_GT(scrapes, 0) << "at least one live scrape succeeded";

  ASSERT_EQ(outs.size(), base.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    EXPECT_EQ(outs[i].result.bits, base[i].result.bits) << "packet " << i;
    EXPECT_EQ(outs[i].result.cycles, base[i].result.cycles)
        << "supervised slicing + scraping must stay cycle-exact, packet " << i;
  }

  // Post-run exposition carries the acceptance series: farm counters, queue
  // depth, latency quantiles, and the sim-counter family.
  const std::string text = obs::httpGet("127.0.0.1", server.port(), "/metrics");
  EXPECT_NE(text.find("adres_farm_packets_done_total 6\n"), std::string::npos);
  EXPECT_NE(text.find("adres_farm_packets_submitted_total 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("adres_farm_queue_depth 0\n"), std::string::npos);
  EXPECT_NE(text.find("adres_farm_latency_host_us{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("adres_farm_packet_cycles{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("adres_farm_worker_packets_total{worker=\"2\"}"),
            std::string::npos);
  EXPECT_NE(text.find("adres_sim_counter{name=\"core.cycles\"}"),
            std::string::npos)
      << "published session counters reach the live endpoint";

  // The merged live histogram equals the post-run merge.
  EXPECT_EQ(farm.latencySnapshot().count, static_cast<u64>(kPackets));
  EXPECT_EQ(farm.stats().packetCycles.count, static_cast<u64>(kPackets));

  server.stop();
  reg.clear();  // teardown barrier before the farm dies
}

/// The value of scalar series `name` for `worker` in `snap`.
double workerSeries(const obs::MetricsSnapshot& snap, const std::string& name,
                    int worker) {
  const obs::Labels labels{{"worker", std::to_string(worker)}};
  for (const obs::MetricSample& m : snap.samples)
    if (m.name == name && m.labels == labels) return m.value;
  ADD_FAILURE() << "no series " << name << " for worker " << worker;
  return 0.0;
}

double farmSeries(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const obs::MetricSample& m : snap.samples)
    if (m.name == name && m.labels.empty()) return m.value;
  ADD_FAILURE() << "no series " << name;
  return 0.0;
}

TEST(PacketFarm, PerWorkerSeriesEqualSumsOverCollectedOutcomes) {
  const dsp::ModemConfig cfg = smallConfig();
  constexpr int kPackets = 6;
  constexpr int kWorkers = 2;
  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = kWorkers;
  PacketFarm farm(fc);
  obs::MetricsRegistry reg;
  farm.registerMetrics(reg);

  // Each packet's simulated ops, from a reference decode (deterministic).
  std::vector<u64> ops;
  RxSession ref(cfg);
  for (int i = 0; i < kPackets; ++i) {
    const auto [rx, bits] = makePacket(cfg, i);
    (void)ref.decode(rx);
    ops.push_back(ref.processor().activity().totalOps());
    (void)farm.submit(rx);
  }
  const std::vector<RxOutcome> outs = farm.finish();
  ASSERT_EQ(outs.size(), static_cast<std::size_t>(kPackets));

  // Uptime brackets the utilization read: before <= at-read <= after.
  const obs::MetricsSnapshot before = reg.snapshot();
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricsSnapshot after = reg.snapshot();
  const double upBeforeNs =
      farmSeries(before, "adres_farm_uptime_seconds") * 1e9;
  const double upAfterNs =
      farmSeries(after, "adres_farm_uptime_seconds") * 1e9;

  for (int w = 0; w < kWorkers; ++w) {
    u64 packets = 0, cycles = 0, simOps = 0;
    double busyNs = 0;
    for (const RxOutcome& o : outs) {
      if (o.worker != w) continue;
      ++packets;
      cycles += o.result.cycles;
      simOps += ops[static_cast<std::size_t>(o.id)];
      busyNs += o.hostUs * 1000.0;
    }
    EXPECT_EQ(workerSeries(snap, "adres_farm_worker_packets_total", w),
              static_cast<double>(packets))
        << "worker " << w;
    EXPECT_EQ(workerSeries(snap, "adres_farm_worker_sim_cycles_total", w),
              static_cast<double>(cycles))
        << "worker " << w;
    EXPECT_DOUBLE_EQ(workerSeries(snap, "adres_farm_worker_ipc", w),
                     cycles ? static_cast<double>(simOps) /
                                  static_cast<double>(cycles)
                            : 0.0)
        << "worker " << w;
    // Busy time is recorded per packet in whole nanoseconds.
    const double util = workerSeries(snap, "adres_farm_worker_utilization", w);
    EXPECT_LE(util * upBeforeNs, busyNs + 1.0) << "worker " << w;
    EXPECT_GE(util * upAfterNs, busyNs - static_cast<double>(packets) - 1.0)
        << "worker " << w;
  }
  reg.clear();  // teardown barrier before the farm dies
}

TEST(PacketFarm, DeepObservabilityKeepsDecodesBitAndCycleExact) {
  // Spans + kernel profiling (run.profile) enabled at once against a plain
  // farm: observation must not change a single bit or cycle, and every
  // observability product (span trees, merged profile, slowest-packet view,
  // Prometheus histogram) must materialize.
  const dsp::ModemConfig cfg = smallConfig();
  constexpr int kPackets = 8;
  std::vector<std::array<std::vector<cint16>, 2>> waves;
  for (int i = 0; i < kPackets; ++i) waves.push_back(makePacket(cfg, i).first);

  std::vector<RxOutcome> base;
  {
    FarmConfig fc;
    fc.modem = cfg;
    fc.numWorkers = 3;
    PacketFarm farm(fc);
    for (const auto& rx : waves) (void)farm.submit(rx);
    base = farm.finish();
  }

  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 3;
  fc.spans = true;
  fc.run.profile = true;
  obs::MetricsRegistry reg;
  PacketFarm farm(fc);
  farm.registerMetrics(reg);
  for (const auto& rx : waves) (void)farm.submit(rx);
  const std::vector<RxOutcome> outs = farm.finish();

  ASSERT_EQ(outs.size(), base.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const RxOutcome& o = outs[i];
    EXPECT_EQ(o.result.bits, base[i].result.bits) << "packet " << i;
    EXPECT_EQ(o.result.cycles, base[i].result.cycles)
        << "observability must not move a cycle, packet " << i;
    EXPECT_EQ(o.traceId, trace::packetTraceId(o.id, 0));
    EXPECT_NE(o.traceId, 0u);
    EXPECT_GE(o.queueWaitUs, 0.0);
    // The span tree is attached and internally consistent.
    ASSERT_FALSE(o.spans.empty()) << "packet " << i;
    EXPECT_EQ(o.spans.traceId, o.traceId);
    EXPECT_EQ(o.spans.jobId, o.id);
    const trace::Span* decode = o.spans.find(trace::SpanKind::kDecode);
    ASSERT_NE(decode, nullptr);
    EXPECT_EQ(decode->cycles, o.result.cycles);
    EXPECT_NEAR(o.spans.queueWaitUs(), o.queueWaitUs, 1e-9);
    u64 regionChildren = 0, regionCycles = 0;
    for (const trace::Span& s : o.spans.spans) {
      if (s.kind != trace::SpanKind::kRegion) continue;
      ++regionChildren;
      regionCycles += s.cycles;
      EXPECT_FALSE(s.name.empty());
    }
    EXPECT_GT(regionChildren, 4u) << "one child per modem region entered";
    EXPECT_LE(regionCycles, o.result.cycles);
  }

  // Merged cycle-attribution profile: one fold per packet, partition exact.
  const trace::ProfileSummary& prof = farm.stats().profile;
  EXPECT_EQ(prof.runs, static_cast<u64>(kPackets));
  EXPECT_GT(prof.totalCycles, 0u);
  ASSERT_FALSE(prof.kernels.empty());
  for (const auto& [key, kr] : prof.kernels) {
    EXPECT_EQ(kr.cycles, kr.issueCycles + kr.idleCycles + kr.stallCycles +
                             kr.overheadCycles)
        << key.first << "/" << key.second;
  }
  EXPECT_EQ(farm.stats().queueWaitNs.count, static_cast<u64>(kPackets));

  // Live slowest-packet view carries its span tree.
  const PacketFarm::SlowestPacket slow = farm.slowestPacket();
  EXPECT_GT(slow.latencyUs, 0.0);
  EXPECT_NE(slow.traceId, 0u);
  EXPECT_FALSE(slow.spans.empty());

  // Prometheus exposition: one latency family (the summary) counts every
  // packet, and the queue-wait summary and slowest-packet region breakdown
  // are live.
  std::ostringstream os;
  reg.writePrometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("adres_farm_latency_host_us_count 8\n"),
            std::string::npos);
  EXPECT_EQ(text.find("adres_farm_decode_latency_us"), std::string::npos);
  EXPECT_NE(text.find("adres_farm_queue_wait_us{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("adres_farm_slowest_packet_region_cycles{region="),
            std::string::npos);

  reg.clear();  // teardown barrier before the farm dies
}

TEST(RxSession, WarmReloadIsBitAndCycleExactWithColdReload) {
  const dsp::ModemConfig cfg = smallConfig();
  RxSession warm(cfg);  // warm reload from the second decode on
  // The cold side: a full program load per decode on one processor, folding
  // each packet's counters and region profiles as the session does.
  const auto modem = modemProgramFor(cfg);
  Processor coldProc;
  sdr::RxRunOptions coldOpts;
  coldOpts.exec.warmReload = false;
  trace::CounterBlock coldCounters;
  std::map<int, RegionProfile> coldRegions;

  for (int i = 0; i < 3; ++i) {
    const auto [rx, bits] = makePacket(cfg, i);
    const auto w = warm.decode(rx);
    coldProc.dma().resetStats();  // as RxSession: stats cover one packet
    const auto c = sdr::runModemOnProcessor(coldProc, *modem, rx, coldOpts);
    coldCounters += trace::readCounters(coldProc);
    for (const auto& [id, rp] : coldProc.profiles()) coldRegions[id] += rp;
    EXPECT_EQ(w.bits, bits) << "packet " << i;
    EXPECT_EQ(w.bits, c.bits) << "packet " << i;
    EXPECT_EQ(w.cycles, c.cycles) << "packet " << i;
    EXPECT_EQ(w.detected, c.detected);
    EXPECT_EQ(w.ltfStart, c.ltfStart);
  }
  // The whole counter set — not just cycles — must be reload-invariant.
  EXPECT_EQ(warm.stats().counters, coldCounters);
  EXPECT_EQ(warm.stats().regions, coldRegions);
}

TEST(PacketFarm, SubmittedPayloadsAreMovedNeverCopied) {
  const dsp::ModemConfig cfg = smallConfig();
  constexpr int kPackets = 6;

  // Record each submitted buffer's storage address; the pre-decode hook
  // (on the worker thread, after the queue hop) must observe the same
  // addresses — any copy along submit -> queue -> dispatch would fail this.
  std::mutex mu;
  std::map<u64, std::array<const cint16*, 2>> submitted, dispatched;

  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 2;
  fc.preDecodeHook = [&](int, const RxJob& job) {
    std::lock_guard<std::mutex> lk(mu);
    dispatched[job.id] = {job.rx[0].data(), job.rx[1].data()};
  };
  PacketFarm farm(fc);

  for (int i = 0; i < kPackets; ++i) {
    auto [rx, bits] = makePacket(cfg, i);
    RxJob job;
    job.id = static_cast<u64>(i);
    job.rx = std::move(rx);
    {
      std::lock_guard<std::mutex> lk(mu);
      submitted[job.id] = {job.rx[0].data(), job.rx[1].data()};
    }
    farm.submit(std::move(job));
  }
  const std::vector<RxOutcome> outs = farm.finish();
  ASSERT_EQ(outs.size(), static_cast<std::size_t>(kPackets));

  ASSERT_EQ(submitted.size(), dispatched.size());
  for (const auto& [id, ptrs] : submitted) {
    ASSERT_TRUE(dispatched.count(id)) << "job " << id;
    EXPECT_EQ(dispatched[id][0], ptrs[0]) << "rx[0] of job " << id
                                          << " was copied, not moved";
    EXPECT_EQ(dispatched[id][1], ptrs[1]) << "rx[1] of job " << id
                                          << " was copied, not moved";
  }
}

TEST(PacketFarm, CollectIntoAndRecycleFormClosedBufferLoops) {
  const dsp::ModemConfig cfg = smallConfig();
  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 1;
  PacketFarm farm(fc);

  const auto [rx, bits] = makePacket(cfg, 0);
  std::vector<RxOutcome> outs;
  std::set<const cint16*> waveStorage;  // round-0 waveform allocations
  const u8* bitStorage = nullptr;       // round-0 decoded-bit allocation
  for (int round = 0; round < 3; ++round) {
    RxJob job;
    job.id = static_cast<u64>(round);
    // Waveform storage comes from the pool: round 0 allocates, later
    // rounds must reuse the buffers the worker released after decoding
    // (the pool is LIFO, so the two antenna buffers may swap roles).
    job.rx[0] = farm.acquireSampleBuffer();
    job.rx[1] = farm.acquireSampleBuffer();
    job.rx[0].assign(rx[0].begin(), rx[0].end());
    job.rx[1].assign(rx[1].begin(), rx[1].end());
    if (round == 0) {
      waveStorage = {job.rx[0].data(), job.rx[1].data()};
    } else {
      EXPECT_TRUE(waveStorage.count(job.rx[0].data()) &&
                  waveStorage.count(job.rx[1].data()))
          << "round " << round << ": sample buffers must cycle via the pool";
    }
    farm.submit(std::move(job));

    farm.collectInto(outs);
    ASSERT_EQ(outs.size(), 1u) << "round " << round;
    EXPECT_EQ(outs[0].id, static_cast<u64>(round));
    EXPECT_EQ(outs[0].result.bits, bits) << "round " << round;
    if (round == 0) {
      bitStorage = outs[0].result.bits.data();
    } else {
      EXPECT_EQ(outs[0].result.bits.data(), bitStorage)
          << "round " << round << ": decoded bits must cycle via the pool";
    }
    farm.recycleOutcomes(outs);
    EXPECT_TRUE(outs.empty()) << "recycle clears the caller's view";
  }
  (void)farm.finish();
}

}  // namespace
}  // namespace adres::platform
