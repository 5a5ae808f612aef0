// campaign_runner: Monte-Carlo BER/PER sweeps on the packet farm from the
// command line (src/campaign, DESIGN.md §11).
//
//   $ ./campaign_runner --mod qam16,qam64 --snr 10:4:30 --taps 1 --flat
//         --workers 4 --checkpoint camp.json
//
// Axes take comma lists ("10,20,30") or lo:step:hi ranges ("10:4:30");
// a token that is not a whole finite number exits 1 naming it.
// With --checkpoint the adres.campaign.v1 file is rewritten atomically
// after every completed cell; re-running the same command resumes from it
// (--fresh ignores an existing file).  --stop-after-cells N exits after N
// cells complete — a deterministic "kill" for resume testing.  With
// --live-metrics a MetricsServer exposes campaign progress while it runs.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_args.hpp"
#include "campaign/runner.hpp"
#include "obs/metrics_server.hpp"

using namespace adres;

namespace {

bool parseMods(const std::string& s, std::vector<dsp::Modulation>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? std::string::npos
                                                 : comma - pos);
    if (tok == "qam16" || tok == "16") {
      out.push_back(dsp::Modulation::kQam16);
    } else if (tok == "qam64" || tok == "64") {
      out.push_back(dsp::Modulation::kQam64);
    } else if (!tok.empty()) {
      std::fprintf(stderr, "campaign_runner: unknown modulation '%s' "
                           "(mapped demod supports qam16, qam64)\n",
                   tok.c_str());
      return false;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string mods = "qam64";
  std::string snr = "30";
  std::string cfo = "10";
  std::string taps = "3";
  std::string symbols = "4";
  double delaySpread = 0.45;
  bool flat = false;
  int seed = 1;
  int minTrials = 16, maxTrials = 1024, errorBudget = 50;
  double ciHalfWidth = 0.05, confidence = 0.95;
  int batch = 16;
  int workers = 1;
  int producers = 1;
  std::string frontend = "vectorized";
  std::string checkpoint;
  bool fresh = false;
  int stopAfterCells = -1;
  int metricsPort = -1;
  int lingerMs = 0;
  bool quiet = false;

  bench::Args args("campaign_runner",
                   "Monte-Carlo BER/PER campaign on the packet farm");
  args.flag("mod", "LIST", "modulations: qam16,qam64", &mods);
  args.flag("snr", "AXIS", "SNR dB list or lo:step:hi", &snr);
  args.flag("cfo", "AXIS", "CFO ppm list or lo:step:hi", &cfo);
  args.flag("taps", "AXIS", "channel tap counts", &taps);
  args.flag("symbols", "AXIS", "OFDM data symbols per packet (even)", &symbols);
  args.flag("delay-spread", "X", "exponential tap-power decay", &delaySpread);
  args.flag("flat", "identity-gain channel (AWGN+CFO only)", &flat);
  args.flag("seed", "N", "campaign master seed", &seed);
  args.flag("min-trials", "N", "min trials per cell", &minTrials);
  args.flag("max-trials", "N", "max trials per cell", &maxTrials);
  args.flag("error-budget", "N", "stop a cell after N packet errors",
            &errorBudget);
  args.flag("ci-halfwidth", "X", "stop when the Wilson CI half-width <= X",
            &ciHalfWidth);
  args.flag("confidence", "X", "CI coverage (default 0.95)", &confidence);
  args.flag("batch", "N", "trials per farm batch (part of the spec)", &batch);
  args.flag("workers", "N", "farm worker threads", &workers);
  args.flag("producers", "N",
            "trial-generation threads (results identical for any N)",
            &producers);
  args.flag("frontend", "KIND",
            "trial frontend: scalar|vectorized (bit-identical)", &frontend);
  args.flag("checkpoint", "PATH", "adres.campaign.v1 checkpoint file",
            &checkpoint);
  args.flag("fresh", "ignore an existing checkpoint", &fresh);
  args.flag("stop-after-cells", "N", "exit after N cells complete this run",
            &stopAfterCells);
  args.flag("live-metrics", "PORT",
            "serve Prometheus /metrics on PORT (0=ephemeral)", &metricsPort);
  args.flag("linger-ms", "N", "keep serving metrics N ms after the run",
            &lingerMs);
  args.flag("quiet", "suppress per-cell progress lines", &quiet);
  if (!args.parse(argc, argv)) return args.parseError() ? 1 : 0;

  campaign::CampaignConfig cfg;
  if (!parseMods(mods, cfg.sweep.mods)) return 1;
  const auto axis = [](const char* flag, const std::string& s, auto& out) {
    std::string bad;
    if (bench::parseAxis(s, out, bad)) return true;
    std::fprintf(stderr, "campaign_runner: --%s: bad value '%s'\n", flag,
                 bad.c_str());
    return false;
  };
  if (!axis("snr", snr, cfg.sweep.snrDb) ||
      !axis("cfo", cfo, cfg.sweep.cfoPpm) ||
      !axis("taps", taps, cfg.sweep.taps) ||
      !axis("symbols", symbols, cfg.sweep.numSymbols))
    return 1;
  cfg.sweep.delaySpread = delaySpread;
  cfg.sweep.flat = flat;
  cfg.sweep.seed = static_cast<u64>(seed);
  cfg.sweep.batchSize = static_cast<u64>(batch);
  cfg.sweep.stop.minTrials = static_cast<u64>(minTrials);
  cfg.sweep.stop.maxTrials = static_cast<u64>(maxTrials);
  cfg.sweep.stop.errorBudget = static_cast<u64>(errorBudget);
  cfg.sweep.stop.ciHalfWidth = ciHalfWidth;
  cfg.sweep.stop.confidence = confidence;
  cfg.workers = workers;
  cfg.producers = producers;
  try {
    cfg.frontend.kind = dsp::parseFrontendKind(frontend);
  } catch (const SimError& e) {
    std::fprintf(stderr, "campaign_runner: %s\n", e.what());
    return 1;
  }
  cfg.checkpointPath = checkpoint;
  cfg.resume = !fresh;
  cfg.stopAfterCells = stopAfterCells;
  if (!quiet)
    cfg.log = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
    };

  campaign::CampaignRunner runner(cfg);

  obs::MetricsRegistry registry;
  std::unique_ptr<obs::MetricsServer> server;
  if (metricsPort >= 0) {
    runner.registerMetrics(registry);
    server = std::make_unique<obs::MetricsServer>(registry, metricsPort);
    std::printf("# live metrics on http://localhost:%d/metrics\n",
                server->port());
  }

  const campaign::CampaignResult res = runner.run();

  std::printf("\n%-28s %8s %10s %21s %10s %9s %11s %9s\n", "cell", "trials",
              "PER", "PER 95% CI", "BER", "cyc/pkt", "nJ/bit", "Mbps");
  for (std::size_t i = 0; i < res.cells.size(); ++i) {
    const campaign::CellSpec& c = res.cells[i];
    const campaign::CellResult& r = res.results[i];
    if (!r.done) {
      std::printf("%-28s (not run)\n", campaign::cellLabel(c).c_str());
      continue;
    }
    const campaign::Interval ci =
        campaign::wilson(r.packetErrors, r.trials, cfg.sweep.stop.confidence);
    const double goodput = dsp::rawRateMbps(c.modem) * (1.0 - r.per());
    std::printf("%-28s %8llu %10.4g [%8.4g, %8.4g] %10.3g %9.0f %11.2f %9.2f\n",
                campaign::cellLabel(c).c_str(),
                static_cast<unsigned long long>(r.trials), r.per(), ci.lo,
                ci.hi, r.ber(), r.avgCyclesPerPacket(), r.energyPerBitNj(),
                goodput);
  }
  std::printf("\ntrials run: %llu  discarded past stop points: %llu%s\n",
              static_cast<unsigned long long>(res.trialsRun),
              static_cast<unsigned long long>(res.trialsDiscarded),
              res.completed ? "" : "  (campaign incomplete)");

  if (server && lingerMs > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(lingerMs));
  registry.clear();
  return 0;
}
