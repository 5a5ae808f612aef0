// Packet-farm throughput: N simulated ADRES processors decoding a stream
// of MIMO-OFDM packets in parallel (src/platform).  Reports packets/sec,
// aggregate decoded Mbps, scaling efficiency vs worker count and p50/p99
// per-packet host latency (histogram-derived — no samples are stored),
// verifying every run is bit-exact with the 1-worker baseline.  Emits a
// machine-readable BENCH_farm.json.
//
//   $ ./bench_farm [numPackets] [numSymbols] [maxWorkers] [jsonPath]
//         [--exec-tier TIER] [--live-metrics PORT] [--linger-ms N]
//         [--sentinel RATE] [--slo SPECS] [--postmortem-dir DIR]
//         [--sentinel-overhead-max-pct PCT]
//
// jsonPath defaults to BENCH_farm.json; pass "-" to skip the dump.  With
// --live-metrics the bench embeds a MetricsServer: while the sweep runs,
// `curl localhost:PORT/metrics` returns the live Prometheus exposition of
// the active farm (PORT 0 picks an ephemeral port, printed at startup);
// --linger-ms keeps serving the final farm's metrics after the sweep so
// scrapers and the farm_dashboard example can attach.
//
// Self-auditing (DESIGN.md §16): --sentinel enables the divergence sentinel
// at the given sample rate, shadow-decoding on the tier --exec-tier does not
// use (any divergence makes the bench exit 2); --slo evaluates an SLO spec
// list against the live registry (its adres_slo_* gauges are served on
// /metrics with --live-metrics; a breach captures a postmortem bundle when
// --postmortem-dir is set).  --sentinel-overhead-max-pct runs
// bench::kOverheadPairs alternating without/with-sentinel pairs at the
// largest worker count and fails (exit 1) when the median per-pair overhead
// in wall time exceeds the given percent.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_args.hpp"
#include "dsp/channel.hpp"
#include "obs/metrics_server.hpp"
#include "obs/slo.hpp"
#include "platform/packet_farm.hpp"

using namespace adres;

namespace {

struct Row {
  int workers = 0;
  double wallMs = 0, pps = 0, mbps = 0, speedup = 0, efficiency = 0;
  double p50Us = 0, p99Us = 0, avgPowerMw = 0, ber = 0;
  double queueWaitP50Us = 0, queueWaitP99Us = 0;
  double queueWaitShare = 0;  ///< queue wait / (queue wait + decode time)
  u64 sentinelSampled = 0;  ///< packets shadow-decoded by the sentinel
  u64 divergences = 0;      ///< sentinel divergences (must be 0)
  // Producer/consumer split: the submit side timed separately from the
  // decode side, plus how long submitters sat blocked on a full queue.
  double submitMs = 0;             ///< wall time of the submit loop alone
  double submitPps = 0;            ///< submit-side throughput (jobs/s)
  double backpressureMs = 0;       ///< submitter time blocked, queue full
  double backpressureShare = 0;    ///< blocked time / submit wall time
  bool bitExact = true;  ///< per-packet results identical to the 1-worker run
};

}  // namespace

int main(int argc, char** argv) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  int numPackets = 24;
  int numSymbols = 4;
  int maxWorkers = std::max(1, std::min(8, hw));
  std::string jsonPath = "BENCH_farm.json";
  int metricsPort = -1;
  int lingerMs = 0;
  double sentinelRate = -1.0;  // <0 = sentinel off
  std::string sloSpecsText;
  std::string postmortemDir;
  double overheadMaxPct = -1.0;  // <0 = no overhead gate

  bench::Args args("bench_farm", "packet-farm throughput sweep");
  args.positional("numPackets", "packets to decode per row", &numPackets);
  args.positional("numSymbols", "OFDM symbols per packet (even)", &numSymbols);
  args.positional("maxWorkers", "largest worker count in the sweep",
                  &maxWorkers);
  args.positional("jsonPath", "BENCH_farm.json path ('-' = skip)", &jsonPath);
  args.flag("live-metrics", "PORT",
            "serve Prometheus /metrics on PORT (0=ephemeral)", &metricsPort);
  args.flag("linger-ms", "MS", "keep serving metrics MS ms after the sweep",
            &lingerMs);
  args.flag("sentinel", "RATE",
            "divergence-sentinel sample rate in [0,1] (1 audits everything; "
            "the shadow runs on the other exec tier)",
            &sentinelRate);
  args.flag("slo", "SPECS",
            "SLO spec list, e.g. 'p99: p99_latency_us < 50000; "
            "integrity: divergences < 1'",
            &sloSpecsText);
  args.flag("postmortem-dir", "DIR",
            "write adres.postmortem.v1 bundles (SLO breaches, divergences, "
            "watchdog failures) under DIR",
            &postmortemDir);
  args.flag("sentinel-overhead-max-pct", "PCT",
            "paired-run overhead gate: fail when the sentinel's median "
            "per-pair wall-time overhead exceeds PCT percent",
            &overheadMaxPct);
  bench::ExecTierFlag tierFlag(args);
  if (!args.parse(argc, argv)) return args.parseError() ? 1 : 0;
  ExecTier tier;
  std::vector<obs::SloSpec> sloSpecs;
  try {
    tier = tierFlag.resolve();
    if (!sloSpecsText.empty()) sloSpecs = obs::parseSloSpecList(sloSpecsText);
  } catch (const SimError& e) {
    fprintf(stderr, "bench_farm: %s\n", e.what());
    return 1;
  }

  if (numSymbols < 2) numSymbols = 2;
  numSymbols &= ~1;
  if (maxWorkers < 1) maxWorkers = 1;

  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = numSymbols;

  printf("=== packet farm: %d packets x %d symbols, up to %d workers "
         "(%d hw threads, %s tier) ===\n",
         numPackets, numSymbols, maxWorkers, hw, execTierName(tier));

  obs::MetricsRegistry metrics;
  std::unique_ptr<obs::MetricsServer> server;
  if (metricsPort >= 0) {
    server = std::make_unique<obs::MetricsServer>(metrics, metricsPort);
    printf("live metrics: http://127.0.0.1:%d/metrics\n", server->port());
  }

  // Traffic: packets through a 2-tap channel, varied seeds, golden bits kept.
  std::vector<std::array<std::vector<cint16>, 2>> waves;
  std::vector<std::vector<u8>> golden;
  long totalBits = 0;
  for (int i = 0; i < numPackets; ++i) {
    Rng rng(1000 + static_cast<u64>(i));
    const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
    dsp::ChannelConfig cc;
    cc.taps = 2;
    cc.snrDb = 38;
    cc.cfoPpm = 5;
    cc.seed = static_cast<u64>(i + 1);
    dsp::MimoChannel ch(cc);
    waves.push_back(ch.run(pkt.waveform));
    golden.push_back(pkt.bits);
    totalBits += static_cast<long>(pkt.bits.size());
  }

  // Pay the one-time program build before any timed run.
  (void)platform::modemProgramFor(cfg);

  std::vector<int> sweep;
  for (int w = 1; w < maxWorkers; w *= 2) sweep.push_back(w);
  sweep.push_back(maxWorkers);

  std::vector<Row> rows;
  std::vector<std::vector<u8>> baselineBits;
  std::vector<u64> baselineCycles;
  std::unique_ptr<platform::PacketFarm> farm;  // survives the loop for linger
  std::unique_ptr<obs::SloEngine> slo;
  u64 totalDivergences = 0;
  const auto farmConfigFor = [&](int w, double auditRate) {
    platform::FarmConfig fc;
    fc.modem = cfg;
    fc.numWorkers = w;
    fc.queueCapacity = static_cast<std::size_t>(2 * w);
    fc.ordered = true;
    fc.run.exec.tier = tier;
    if (auditRate >= 0) {
      fc.sentinel.enabled = true;
      fc.sentinel.sampleRate = auditRate;
    }
    if (!postmortemDir.empty()) {
      fc.postmortem.enabled = true;
      fc.postmortem.dir = postmortemDir;
      fc.postmortem.metrics = &metrics;
    }
    return fc;
  };
  for (const int w : sweep) {
    // Swap the scrape target: clear() is the teardown barrier for the
    // getters capturing the previous farm and SLO engine.
    if (server) server->setReadiness({});
    metrics.clear();
    slo.reset();
    farm = std::make_unique<platform::PacketFarm>(farmConfigFor(w, sentinelRate));
    farm->registerMetrics(metrics);
    if (server) server->registerSelfMetrics(metrics);
    if (!sloSpecs.empty()) {
      slo = std::make_unique<obs::SloEngine>(metrics, sloSpecs);
      slo->registerMetrics(metrics);
      slo->setBreachHook([&](const obs::SloStatus& st) {
        const std::string path = farm->capturePostmortem(
            "slo_breach", obs::sloSpecToString(st.spec));
        printf("   SLO BREACH [%s]: value %.3f vs threshold %.3f%s%s\n",
               st.spec.name.c_str(), st.value, st.spec.threshold,
               path.empty() ? "" : " -> ", path.c_str());
      });
      slo->startPeriodic(100);
    }
    if (server) {
      server->setReadiness(
          [&farm](std::string* reason) { return farm->ready(reason); });
    }

    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < numPackets; ++i)
      (void)farm->submit(waves[static_cast<std::size_t>(i)]);
    const double submitUs = bench::msSince(t0) * 1000.0;
    const std::vector<platform::RxOutcome> outs = farm->finish();
    const double wallUs = bench::msSince(t0) * 1000.0;

    Row r;
    r.workers = w;
    r.wallMs = wallUs / 1000.0;
    // Submit-side throughput vs decode-side throughput: when the submitter
    // outruns the workers it blocks on the bounded queue, and that blocked
    // time is the backpressure term — decode-limited when the share is
    // high, producer-limited when ~0.
    r.submitMs = submitUs / 1000.0;
    r.submitPps = static_cast<double>(numPackets) / (submitUs / 1e6);
    r.backpressureMs =
        static_cast<double>(farm->stats().submitBackpressureNs) / 1e6;
    r.backpressureShare = submitUs > 0 ? r.backpressureMs / r.submitMs : 0;
    r.pps = static_cast<double>(numPackets) / (wallUs / 1e6);
    r.mbps = static_cast<double>(totalBits) / wallUs;  // bits/us == Mbps
    long errBits = 0;
    for (const auto& o : outs) {
      r.avgPowerMw += o.avgPowerMw;
      const auto& exp = golden[static_cast<std::size_t>(o.id)];
      errBits += o.result.bits.size() == exp.size()
                     ? dsp::bitErrors(o.result.bits, exp)
                     : static_cast<int>(exp.size());
    }
    r.ber = static_cast<double>(errBits) / static_cast<double>(totalBits);
    r.avgPowerMw /= static_cast<double>(outs.size() ? outs.size() : 1);
    // Histogram-derived quantiles from the farm's merged per-worker
    // latency histograms — no per-sample storage, same values the live
    // /metrics endpoint exposes.
    const obs::HistogramSnapshot lat = farm->stats().latencyNs;
    r.p50Us = lat.quantile(0.5) / 1000.0;
    r.p99Us = lat.quantile(0.99) / 1000.0;
    // Queue-wait vs decode-time split, from the merged queue-wait and
    // latency histograms.
    const obs::HistogramSnapshot wait = farm->stats().queueWaitNs;
    r.queueWaitP50Us = wait.quantile(0.5) / 1000.0;
    r.queueWaitP99Us = wait.quantile(0.99) / 1000.0;
    const double busyNs = static_cast<double>(wait.sum + lat.sum);
    r.queueWaitShare = busyNs > 0 ? static_cast<double>(wait.sum) / busyNs : 0;
    if (w == 1) {
      for (const auto& o : outs) {
        baselineBits.push_back(o.result.bits);
        baselineCycles.push_back(o.result.cycles);
      }
      r.speedup = 1.0;
    } else {
      r.speedup = rows.front().wallMs / r.wallMs;
      for (const auto& o : outs) {
        if (o.result.bits != baselineBits[static_cast<std::size_t>(o.id)] ||
            o.result.cycles != baselineCycles[static_cast<std::size_t>(o.id)])
          r.bitExact = false;
      }
    }
    r.efficiency = r.speedup / static_cast<double>(w);
    if (const obs::DivergenceSentinel* s = farm->sentinel()) {
      r.sentinelSampled = s->sampled();
      r.divergences = s->divergences();
      totalDivergences += r.divergences;
    }
    rows.push_back(r);

    printf("%2d worker%s: %8.1f ms  %7.2f pkt/s  %7.2f Mbps  speedup %5.2fx "
           "(eff %3.0f%%)  p50 %.0f us  p99 %.0f us  qwait p50 %.0f / p99 %.0f "
           "us (%.0f%%)  BER %.1e  %s\n",
           w, w == 1 ? " " : "s", r.wallMs, r.pps, r.mbps, r.speedup,
           100.0 * r.efficiency, r.p50Us, r.p99Us, r.queueWaitP50Us,
           r.queueWaitP99Us, 100.0 * r.queueWaitShare, r.ber,
           r.bitExact ? "bit-exact" : "MISMATCH vs 1-worker baseline");
    printf("            submit %8.1f ms  %7.0f jobs/s  backpressure %.1f ms "
           "(%.0f%% of submit)\n",
           r.submitMs, r.submitPps, r.backpressureMs,
           100.0 * r.backpressureShare);
    if (farm->sentinel()) {
      printf("            sentinel: %llu/%d packets audited, %llu divergence%s\n",
             static_cast<unsigned long long>(r.sentinelSampled), numPackets,
             static_cast<unsigned long long>(r.divergences),
             r.divergences == 1 ? "" : "s");
      for (const obs::IntegrityEvent& ev : farm->integrityEvents())
        printf("   DIVERGENCE [%s] job %llu worker %d: %s%s%s\n",
               obs::integrityEventKindName(ev.kind),
               static_cast<unsigned long long>(ev.jobId), ev.worker,
               ev.detail.c_str(), ev.bundlePath.empty() ? "" : " -> ",
               ev.bundlePath.c_str());
    }
    if (slo) {
      for (const obs::SloStatus& st : slo->evaluate())
        printf("            slo[%s]: %s = %.3f vs %s %.3f  burn %.2f  %s\n",
               st.spec.name.c_str(), obs::sloKindName(st.spec.kind), st.value,
               st.spec.strict ? "<" : "<=", st.spec.threshold, st.burnRate,
               st.fired ? "BREACHING" : (st.haveValue ? "ok" : "no data"));
    }
    for (const obs::HealthEvent& ev : farm->healthEvents())
      printf("   health[%s]: %s\n", obs::healthEventKindName(ev.kind),
             ev.detail.c_str());
  }

  if (jsonPath != "-") {
    std::ofstream os(jsonPath);
    os << "{\n  \"schema\": \"adres.bench_farm.v1\",\n"
       << "  \"exec_tier\": \"" << execTierName(tier) << "\",\n"
       << "  \"sentinel_rate\": " << (sentinelRate >= 0 ? sentinelRate : 0.0)
       << ",\n"
       << "  \"packets\": " << numPackets << ",\n"
       << "  \"num_symbols\": " << numSymbols << ",\n"
       << "  \"total_bits\": " << totalBits << ",\n"
       << "  \"hardware_threads\": " << hw << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      os << (i ? ",\n" : "\n")
         << "    {\"workers\": " << r.workers << ", \"wall_ms\": " << r.wallMs
         << ", \"packets_per_sec\": " << r.pps << ", \"mbps\": " << r.mbps
         << ", \"speedup\": " << r.speedup
         << ", \"efficiency\": " << r.efficiency
         << ", \"p50_us\": " << r.p50Us << ", \"p99_us\": " << r.p99Us
         << ", \"queue_wait_p50_us\": " << r.queueWaitP50Us
         << ", \"queue_wait_p99_us\": " << r.queueWaitP99Us
         << ", \"queue_wait_share\": " << r.queueWaitShare
         << ", \"submit_ms\": " << r.submitMs
         << ", \"submit_jobs_per_sec\": " << r.submitPps
         << ", \"submit_backpressure_ms\": " << r.backpressureMs
         << ", \"submit_backpressure_share\": " << r.backpressureShare
         << ", \"avg_power_mw\": " << r.avgPowerMw << ", \"ber\": " << r.ber
         << ", \"sentinel_sampled\": " << r.sentinelSampled
         << ", \"divergences\": " << r.divergences
         << ", \"bit_exact\": " << (r.bitExact ? "true" : "false") << "}";
    }
    os << "\n  ]\n}\n";
    printf("wrote %s\n", jsonPath.c_str());
  }

  // Paired overhead gate: same traffic, same worker count, sentinel off vs
  // on, as the median of alternating pairs; postmortem capture is off so
  // the comparison isolates the sentinel itself.
  bool overheadGateFailed = false;
  if (overheadMaxPct > 0) {
    const double rate = sentinelRate >= 0 ? sentinelRate : 0.01;
    const auto timedRunMs = [&](double auditRate) {
      platform::FarmConfig fc = farmConfigFor(maxWorkers, auditRate);
      fc.postmortem = obs::PostmortemConfig{};
      platform::PacketFarm f(fc);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < numPackets; ++i)
        (void)f.submit(waves[static_cast<std::size_t>(i)]);
      (void)f.finish();
      const double wallMs = bench::msSince(t0);
      totalDivergences += f.divergences();
      return wallMs;
    };
    const double overheadPct = bench::pairedMedianOverheadPct(
        bench::kOverheadPairs, [&] { return timedRunMs(-1.0); },
        [&] { return timedRunMs(rate); });
    overheadGateFailed = overheadPct > overheadMaxPct;
    printf("sentinel overhead @ %d workers, rate %.3f: %+.1f%% wall time "
           "(median of %d alternating pairs, budget %.1f%%) %s\n",
           maxWorkers, rate, overheadPct, bench::kOverheadPairs,
           overheadMaxPct, overheadGateFailed ? "FAIL" : "ok");
  }

  if (server && lingerMs > 0) {
    printf("serving metrics for another %d ms ...\n", lingerMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(lingerMs));
  }
  if (server) {
    server->setReadiness({});
    server->stop();
    printf("metrics server: %llu scrapes\n",
           static_cast<unsigned long long>(server->requests()));
  }
  if (slo) slo->stop();
  metrics.clear();
  slo.reset();

  if (totalDivergences > 0) {
    printf("FAILED: %llu sentinel divergence%s detected\n",
           static_cast<unsigned long long>(totalDivergences),
           totalDivergences == 1 ? "" : "s");
    return 2;
  }
  for (const Row& r : rows)
    if (!r.bitExact) return 1;
  return overheadGateFailed ? 1 : 0;
}
