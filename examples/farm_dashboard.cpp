// farm_dashboard: a terminal dashboard for a live packet farm.
//
// Scrapes the Prometheus text endpoint a running `bench_farm --live-metrics`
// (or any MetricsServer) exposes and redraws an ANSI view of it: queue
// depth, per-worker state / throughput / utilization / IPC, decode-latency
// quantiles and watchdog health counters.  Everything shown comes off the
// wire — the dashboard is also an end-to-end exerciser of the scrape path.
//
//   $ ./farm_dashboard --port 9464            # attach to a live bench_farm
//   $ ./farm_dashboard --demo                 # self-hosted: own farm+server
//   $ ./farm_dashboard --demo --frames 3      # finite frames (CI-friendly)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_args.hpp"
#include "cell/scheduler.hpp"
#include "dsp/channel.hpp"
#include "obs/metrics_server.hpp"
#include "obs/slo.hpp"
#include "platform/packet_farm.hpp"

using namespace adres;

namespace {

/// One parsed sample line: metric name, label map, value.
struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

/// Minimal Prometheus text-exposition parser: enough for our own exporter's
/// output (`name{k="v",...} value`), comments skipped.
std::vector<Sample> parsePrometheus(const std::string& text) {
  std::vector<Sample> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    Sample s;
    std::size_t i = line.find_first_of("{ ");
    if (i == std::string::npos) continue;
    s.name = line.substr(0, i);
    if (line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string::npos) continue;
      std::size_t p = i + 1;
      while (p < close) {
        const std::size_t eq = line.find('=', p);
        if (eq == std::string::npos || eq > close) break;
        const std::string key = line.substr(p, eq - p);
        std::size_t vStart = eq + 2;  // skip ="
        std::size_t vEnd = line.find('"', vStart);
        if (vEnd == std::string::npos) break;
        s.labels[key] = line.substr(vStart, vEnd - vStart);
        p = vEnd + 1;
        if (p < close && line[p] == ',') ++p;
      }
      i = close + 1;
    }
    s.value = std::atof(line.c_str() + i);
    out.push_back(std::move(s));
  }
  return out;
}

double value(const std::vector<Sample>& samples, const std::string& name,
             const std::string& labelKey = "", const std::string& labelVal = "") {
  for (const Sample& s : samples) {
    if (s.name != name) continue;
    if (!labelKey.empty()) {
      const auto it = s.labels.find(labelKey);
      if (it == s.labels.end() || it->second != labelVal) continue;
    }
    return s.value;
  }
  return 0;
}

std::string bar(double frac, int width) {
  if (frac < 0) frac = 0;
  if (frac > 1) frac = 1;
  const int fill = static_cast<int>(frac * width + 0.5);
  std::string out;
  for (int i = 0; i < width; ++i) out += i < fill ? '#' : '.';
  return out;
}

void drawFrame(const std::vector<Sample>& samples, int frame, bool ansi) {
  if (ansi) printf("\x1b[H\x1b[2J");
  const double workers = value(samples, "adres_farm_workers");
  const double depth = value(samples, "adres_farm_queue_depth");
  const double cap = value(samples, "adres_farm_queue_capacity");
  const double submitted = value(samples, "adres_farm_packets_submitted_total");
  const double done = value(samples, "adres_farm_packets_done_total");
  const double health = value(samples, "adres_farm_health_events_total");
  const double up = value(samples, "adres_farm_uptime_seconds");

  printf("ADRES packet-farm dashboard  (frame %d, uptime %.1f s)\n", frame, up);
  printf("packets  %5.0f done / %5.0f submitted    queue %2.0f/%2.0f [%s]    "
         "health events %.0f\n\n",
         done, submitted, depth, cap, bar(cap > 0 ? depth / cap : 0, 16).c_str(),
         health);
  printf("worker  state  packets   sim Mcycles   util                ipc   "
         "heartbeat\n");
  for (int w = 0; w < static_cast<int>(workers); ++w) {
    const std::string ws = std::to_string(w);
    const double st = value(samples, "adres_farm_worker_state", "worker", ws);
    const double pk =
        value(samples, "adres_farm_worker_packets_total", "worker", ws);
    const double cy =
        value(samples, "adres_farm_worker_sim_cycles_total", "worker", ws);
    const double ut =
        value(samples, "adres_farm_worker_utilization", "worker", ws);
    const double ipc = value(samples, "adres_farm_worker_ipc", "worker", ws);
    const double hb =
        value(samples, "adres_farm_worker_heartbeat_cycles", "worker", ws);
    const char* stName = st == 0 ? "idle" : st == 1 ? "BUSY" : "done";
    printf("  %3d   %-5s  %7.0f   %11.2f   [%s] %3.0f%%  %5.2f  %9.0f\n", w,
           stName, pk, cy / 1e6, bar(ut, 12).c_str(), 100 * ut, ipc, hb);
  }
  printf("\ndecode latency (host us):  p50 %.0f   p90 %.0f   p99 %.0f   "
         "p999 %.0f   (n=%0.f)\n",
         value(samples, "adres_farm_latency_host_us", "quantile", "0.5"),
         value(samples, "adres_farm_latency_host_us", "quantile", "0.9"),
         value(samples, "adres_farm_latency_host_us", "quantile", "0.99"),
         value(samples, "adres_farm_latency_host_us", "quantile", "0.999"),
         value(samples, "adres_farm_latency_host_us_count"));
  printf("packet cycles (sim):       p50 %.0f   p99 %.0f\n",
         value(samples, "adres_farm_packet_cycles", "quantile", "0.5"),
         value(samples, "adres_farm_packet_cycles", "quantile", "0.99"));
  printf("queue wait (host us):      p50 %.0f   p99 %.0f\n",
         value(samples, "adres_farm_queue_wait_us", "quantile", "0.5"),
         value(samples, "adres_farm_queue_wait_us", "quantile", "0.99"));

  // Self-auditing panel (DESIGN.md §16): readiness, sentinel audit counts
  // and per-SLO burn rates — all off the same scrape.
  const double ready = value(samples, "adres_farm_ready");
  const double audited = value(samples, "adres_farm_sentinel_sampled_total");
  const double diverged = value(samples, "adres_farm_divergences_total");
  const double bundles = value(samples, "adres_farm_postmortem_bundles_total");
  printf("\nself-audit:  %s   sentinel %.0f audited / %.0f diverged   "
         "postmortems %.0f\n",
         ready >= 1 ? "READY" : "warming", audited, diverged, bundles);
  bool anySlo = false;
  for (const Sample& s : samples) {
    if (s.name != "adres_slo_burn_rate") continue;
    const auto it = s.labels.find("slo");
    const std::string name = it != s.labels.end() ? it->second : "?";
    const double breaching =
        value(samples, "adres_slo_breaching", "slo", name);
    const double val = value(samples, "adres_slo_value", "slo", name);
    const double total = value(samples, "adres_slo_breaches_total", "slo", name);
    printf("  slo %-16s value %10.2f  burn [%s] %5.2f  breaches %.0f  %s\n",
           name.c_str(), val, bar(s.value, 12).c_str(), s.value, total,
           breaching >= 1 ? "BREACHING" : "ok");
    anySlo = true;
  }
  if (!anySlo)
    printf("  (no SLO engine attached — run bench_farm --slo '...')\n");

  // Per-flow QoS panel (cell simulation layer): shown whenever a
  // CellScheduler has registered its series on the scraped registry.
  const double cellFlows = value(samples, "adres_cell_flows");
  if (cellFlows > 0) {
    const double servers = value(samples, "adres_cell_servers");
    const double offered = value(samples, "adres_cell_packets_total");
    const double delivered = value(samples, "adres_cell_delivered_total");
    const double errors = value(samples, "adres_cell_errors_total");
    const double missed = value(samples, "adres_cell_deadline_miss_total");
    const double missRate = value(samples, "adres_cell_deadline_miss_rate");
    const double goodput = value(samples, "adres_cell_goodput_mbps");
    const double simT = value(samples, "adres_cell_sim_time_us");
    printf("\ncell: %.0f flows on %.0f sim processors (400 MHz)   "
           "sim t %.0f us\n",
           cellFlows, servers, simT);
    printf("  packets %5.0f offered  %5.0f delivered  %4.0f errors  "
           "%4.0f missed   miss [%s] %5.1f%%   goodput %.1f Mbps\n",
           offered, delivered, errors, missed, bar(missRate, 12).c_str(),
           100 * missRate, goodput);
    printf("  sim latency (us):  p50 %.0f   p90 %.0f   p99 %.0f\n",
           value(samples, "adres_cell_latency_us", "quantile", "0.5"),
           value(samples, "adres_cell_latency_us", "quantile", "0.9"),
           value(samples, "adres_cell_latency_us", "quantile", "0.99"));
    printf("  flow  class         snr dB   offered   missed  miss%%         "
           "goodput kbps\n");
    for (const Sample& s : samples) {
      if (s.name != "adres_cell_flow_offered") continue;
      const auto fit = s.labels.find("flow");
      const auto cit = s.labels.find("class");
      const std::string flow = fit != s.labels.end() ? fit->second : "?";
      const double fm = value(samples, "adres_cell_flow_missed", "flow", flow);
      const double fr =
          value(samples, "adres_cell_flow_miss_rate", "flow", flow);
      const double fg =
          value(samples, "adres_cell_flow_goodput_kbps", "flow", flow);
      const double fsnr = value(samples, "adres_cell_flow_snr_db", "flow", flow);
      printf("  %4s  %-12s  %5.1f   %7.0f  %7.0f  [%s] %3.0f%%  %10.1f\n",
             flow.c_str(),
             cit != s.labels.end() ? cit->second.c_str() : "?", fsnr, s.value,
             fm, bar(fr, 8).c_str(), 100 * fr, fg);
    }
  }

  // Slowest-packet breakdown: which packet hit the tail, where it waited,
  // and which modem regions its decode spent simulated cycles in.
  const double slowLat = value(samples, "adres_farm_slowest_packet_latency_us");
  if (slowLat > 0) {
    printf("\nslowest packet: job %.0f on worker %.0f   latency %.0f us   "
           "queue wait %.0f us   %.0f sim cycles\n",
           value(samples, "adres_farm_slowest_packet_id"),
           value(samples, "adres_farm_slowest_packet_worker"), slowLat,
           value(samples, "adres_farm_slowest_packet_queue_wait_us"),
           value(samples, "adres_farm_slowest_packet_cycles"));
    double totalRegion = 0;
    for (const Sample& s : samples)
      if (s.name == "adres_farm_slowest_packet_region_cycles")
        totalRegion += s.value;
    for (const Sample& s : samples) {
      if (s.name != "adres_farm_slowest_packet_region_cycles") continue;
      const auto it = s.labels.find("region");
      const double frac = totalRegion > 0 ? s.value / totalRegion : 0;
      printf("  %-24s %10.0f cycles  [%s] %3.0f%%\n",
             it != s.labels.end() ? it->second.c_str() : "?", s.value,
             bar(frac, 12).c_str(), 100 * frac);
    }
  }
  fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 9464;
  int intervalMs = 500;
  int frames = 0;  // 0 = until the endpoint goes away
  bool demo = false;
  bool noAnsi = false;
  bench::Args args("farm_dashboard",
                   "terminal dashboard for a live packet farm");
  args.flag("host", "H", "metrics host to scrape", &host);
  args.flag("port", "P", "metrics port to scrape", &port);
  args.flag("interval-ms", "N", "redraw interval", &intervalMs);
  args.flag("frames", "N", "exit after N redraws (0 = until scrape fails)",
            &frames);
  args.flag("demo", "run a self-hosted farm + metrics server and watch it",
            &demo);
  bool demoCell = false;
  args.flag("demo-cell",
            "self-hosted multi-user cell scenario (flows, deadlines, per-flow "
            "QoS panel)",
            &demoCell);
  args.flag("no-ansi", "plain append-only output (no cursor control)",
            &noAnsi);
  if (!args.parse(argc, argv)) return args.parseError() ? 1 : 0;

  // Demo mode: a self-hosted farm decodes a packet stream while the
  // dashboard scrapes it over real HTTP.
  std::unique_ptr<obs::MetricsRegistry> reg;
  std::unique_ptr<obs::MetricsServer> server;
  std::unique_ptr<platform::PacketFarm> farm;
  std::unique_ptr<cell::CellScheduler> scheduler;
  std::unique_ptr<obs::SloEngine> slo;
  std::thread feeder;
  std::atomic<bool> feederDone{false};
  if (demo && demoCell) {
    fprintf(stderr, "farm_dashboard: pick one of --demo / --demo-cell\n");
    return 1;
  }
  if (demo || demoCell) {
    dsp::ModemConfig cfg;
    cfg.mod = demoCell ? dsp::Modulation::kQam16 : dsp::Modulation::kQam64;
    cfg.numSymbols = demoCell ? 2 : 4;
    platform::FarmConfig fc;
    fc.modem = cfg;
    fc.numWorkers = std::max(
        1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
    // Exercise the self-audit panel: shadow-decode a quarter of the demo
    // traffic and track two permissive SLOs live.
    fc.sentinel.enabled = true;
    fc.sentinel.sampleRate = 0.25;
    reg = std::make_unique<obs::MetricsRegistry>();
    farm = std::make_unique<platform::PacketFarm>(fc);
    farm->registerMetrics(*reg);
    std::string sloSpec =
        "p99: p99_latency_us < 1000000; integrity: divergences < 1";
    if (demoCell) {
      // A small cell: four users on two simulated processors, generous
      // frame budget — the per-flow QoS panel fills as the DES folds.
      cell::CellScenario sc;
      sc.seed = 42;
      sc.modem = cfg;
      sc.numServers = 2;
      sc.durationUs = 100'000.0;
      sc.classes[0].users = 4;
      sc.classes[0].packetsPerSec = 120.0;
      sc.classes[0].deadlineUs = 20'000.0;
      scheduler = std::make_unique<cell::CellScheduler>(std::move(sc));
      scheduler->registerMetrics(*reg);
      sloSpec = "miss: deadline_miss_rate(20000) <= 0.9; integrity: "
                "divergences < 1";
    }
    slo = std::make_unique<obs::SloEngine>(*reg,
                                           obs::parseSloSpecList(sloSpec));
    slo->registerMetrics(*reg);
    slo->startPeriodic(250);
    server = std::make_unique<obs::MetricsServer>(*reg, 0);
    server->registerSelfMetrics(*reg);
    server->setReadiness(
        [&farm](std::string* reason) { return farm->ready(reason); });
    port = server->port();
    host = "127.0.0.1";
    if (frames == 0) frames = 6;
    if (demoCell) {
      // The scheduler drives the whole scenario (one-shot, blocking): the
      // dashboard scrapes the per-flow series live while the DES folds.
      feeder = std::thread([&farm, &scheduler, &feederDone] {
        (void)scheduler->run(*farm);
        feederDone.store(true);
      });
      printf("demo cell up: %zu flows on %d sim servers, %d host workers, "
             "metrics on http://127.0.0.1:%d/metrics\n",
             scheduler->flows().size(), scheduler->scenario().numServers,
             fc.numWorkers, port);
    } else {
      // cfg dies with this block — the thread must copy it, not reference it.
      feeder = std::thread([&farm, &feederDone, cfg] {
        for (int i = 0; i < 48 && !feederDone.load(); ++i) {
          Rng rng(1000 + static_cast<u64>(i));
          const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
          dsp::ChannelConfig cc;
          cc.taps = 2;
          cc.snrDb = 38;
          cc.seed = static_cast<u64>(i + 1);
          dsp::MimoChannel ch(cc);
          farm->submit(ch.run(pkt.waveform));
        }
        feederDone.store(true);
      });
      printf("demo farm up: %d workers, metrics on "
             "http://127.0.0.1:%d/metrics\n",
             fc.numWorkers, port);
    }
  }

  int misses = 0;
  for (int frame = 1; frames == 0 || frame <= frames; ++frame) {
    const std::string body = obs::httpGet(host, port, "/metrics");
    if (body.empty()) {
      if (++misses >= 3) {
        fprintf(stderr, "farm_dashboard: no metrics at %s:%d — giving up\n",
                host.c_str(), port);
        break;
      }
    } else {
      misses = 0;
      drawFrame(parsePrometheus(body), frame, !noAnsi);
    }
    if (frames == 0 || frame < frames)
      std::this_thread::sleep_for(std::chrono::milliseconds(intervalMs));
  }

  if (demo || demoCell) {
    feederDone.store(true);
    feeder.join();
    (void)farm->finish();
    server->stop();
    slo->stop();
    reg->clear();
  }
  return misses >= 3 ? 1 : 0;
}
