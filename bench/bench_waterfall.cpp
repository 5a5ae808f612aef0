// PER-vs-SNR waterfall for the mapped QAM-16/QAM-64 modem, regenerating
// the committed EXPERIMENTS.md "Waterfall" table via the campaign engine
// (src/campaign).
//
//   $ ./bench_waterfall [--workers N] [--md PATH] [--json PATH]
//         [--fading] [--max-trials N] [--live-metrics PORT]
//
// The primary grid is the flat (identity-gain) channel — AWGN + 10 ppm CFO
// — where the waterfall is sharp and a zero-error operating point exists;
// --fading adds a 3-tap sweep documenting the fade-induced PER floor of
// the uncoded modem.  The bench checks that each modulation's PER is
// monotone non-increasing in SNR (within the Wilson CI: a cell may not
// exceed the previous cell's upper bound) and reports the minimum SNR at
// which the 144 Mbps QAM-64 configuration decoded every trial error-free —
// the paper's "100 Mbps+" operating point.  Exit code 1 on a monotonicity
// violation, or with the engine's message on a value the campaign engine
// rejects (zero workers).
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_args.hpp"
#include "campaign/runner.hpp"
#include "obs/metrics_server.hpp"

using namespace adres;

namespace {

struct ModRows {
  dsp::Modulation mod;
  std::vector<std::size_t> cellIdx;  ///< into result arrays, ascending SNR
};

std::string fmtG(double v, int prec = 4) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
  return buf;
}

int run(int argc, char** argv) {
  int workers = 1;
  int maxTrials = 256;
  int seed = 1;
  bool fading = false;
  std::string mdPath;
  std::string jsonPath = "BENCH_waterfall.json";
  int metricsPort = -1;

  bench::Args args("bench_waterfall",
                   "QAM-16/64 PER-vs-SNR waterfall (campaign engine)");
  args.flag("workers", "N", "farm worker threads", &workers);
  args.flag("max-trials", "N", "trial ceiling per cell", &maxTrials);
  args.flag("seed", "N", "campaign master seed", &seed);
  args.flag("fading", "add the 3-tap multipath sweep (PER floor)", &fading);
  args.flag("md", "PATH", "write the markdown table to PATH", &mdPath);
  args.flag("json", "PATH", "BENCH_waterfall.json path ('-' = skip)",
            &jsonPath);
  args.flag("live-metrics", "PORT",
            "serve campaign progress as Prometheus /metrics on PORT "
            "(0=ephemeral)",
            &metricsPort);
  if (!args.parse(argc, argv)) return args.parseError() ? 1 : 0;

  campaign::CampaignConfig cfg;
  cfg.sweep.seed = static_cast<u64>(seed);
  cfg.sweep.mods = {dsp::Modulation::kQam16, dsp::Modulation::kQam64};
  cfg.sweep.numSymbols = {4};
  cfg.sweep.taps = {1};
  cfg.sweep.cfoPpm = {10.0};
  cfg.sweep.snrDb = {14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34};
  cfg.sweep.flat = true;
  cfg.sweep.batchSize = 16;
  cfg.sweep.stop.minTrials = 16;
  cfg.sweep.stop.maxTrials = static_cast<u64>(maxTrials);
  cfg.sweep.stop.errorBudget = 30;
  cfg.sweep.stop.ciHalfWidth = 0.06;
  cfg.workers = workers;
  cfg.log = [](const std::string& line) {
    std::printf("# %s\n", line.c_str());
    std::fflush(stdout);
  };

  campaign::CampaignRunner runner(cfg);
  obs::MetricsRegistry metrics;
  std::unique_ptr<obs::MetricsServer> server;
  if (metricsPort >= 0) {
    runner.registerMetrics(metrics);
    server = std::make_unique<obs::MetricsServer>(metrics, metricsPort);
    std::printf("# live metrics on http://localhost:%d/metrics\n",
                server->port());
  }
  const auto t0 = std::chrono::steady_clock::now();
  const campaign::CampaignResult flat = runner.run();
  const double flatMs = bench::msSince(t0);

  // Optional fading sweep (separate runner: different spec).
  campaign::CampaignResult faded;
  if (fading) {
    campaign::CampaignConfig fc = cfg;
    fc.sweep.flat = false;
    fc.sweep.taps = {3};
    fc.sweep.snrDb = {22, 26, 30, 34, 38};
    fc.sweep.stop.maxTrials = std::min<u64>(96, fc.sweep.stop.maxTrials);
    campaign::CampaignRunner fr(fc);
    faded = fr.run();
  }

  // Group flat cells by modulation, ascending SNR (expansion order).
  std::vector<ModRows> groups;
  for (dsp::Modulation m : cfg.sweep.mods) {
    ModRows g;
    g.mod = m;
    for (std::size_t i = 0; i < flat.cells.size(); ++i)
      if (flat.cells[i].modem.mod == m) g.cellIdx.push_back(i);
    groups.push_back(g);
  }

  // Monotonicity: PER may not exceed the previous (lower-SNR) cell's
  // Wilson upper bound.
  bool monotone = true;
  for (const ModRows& g : groups) {
    for (std::size_t k = 1; k < g.cellIdx.size(); ++k) {
      const campaign::CellResult& prev = flat.results[g.cellIdx[k - 1]];
      const campaign::CellResult& cur = flat.results[g.cellIdx[k]];
      const campaign::Interval prevCi = campaign::wilson(
          prev.packetErrors, prev.trials, cfg.sweep.stop.confidence);
      if (cur.per() > prevCi.hi) {
        monotone = false;
        std::printf("# MONOTONICITY VIOLATION: %s per=%g > prev upper %g\n",
                    campaign::cellLabel(flat.cells[g.cellIdx[k]]).c_str(),
                    cur.per(), prevCi.hi);
      }
    }
  }

  // Minimum SNR with zero packet errors at 100 Mbps+ (QAM-64, 144 Mbps raw):
  // smallest grid SNR from which every cell upward decoded error-free.
  double minSnr100 = -1.0;
  for (const ModRows& g : groups) {
    if (dsp::rawRateMbps({g.mod, cfg.sweep.numSymbols[0]}) < 100.0) continue;
    for (std::size_t k = g.cellIdx.size(); k-- > 0;) {
      const campaign::CellResult& r = flat.results[g.cellIdx[k]];
      if (r.packetErrors != 0) break;
      minSnr100 = flat.cells[g.cellIdx[k]].channel.snrDb;
    }
  }

  // Markdown table (stdout + optional file): the committed experiment.
  std::ostringstream md;
  md << "| modulation | SNR (dB) | trials | PER | PER 95% CI | BER | "
        "cycles/packet | energy (nJ/bit) | goodput (Mbps) |\n";
  md << "|---|---|---|---|---|---|---|---|---|\n";
  auto emitRows = [&md, &cfg](const campaign::CampaignResult& res,
                              dsp::Modulation mod) {
    for (std::size_t i = 0; i < res.cells.size(); ++i) {
      const campaign::CellSpec& c = res.cells[i];
      if (c.modem.mod != mod) continue;
      const campaign::CellResult& r = res.results[i];
      if (!r.done) continue;
      const campaign::Interval ci = campaign::wilson(
          r.packetErrors, r.trials, cfg.sweep.stop.confidence);
      const char* name = mod == dsp::Modulation::kQam16 ? "QAM-16" : "QAM-64";
      md << "| " << name << (c.channel.flat ? "" : " (3-tap)") << " | "
         << fmtG(c.channel.snrDb) << " | " << r.trials << " | "
         << fmtG(r.per()) << " | [" << fmtG(ci.lo) << ", " << fmtG(ci.hi)
         << "] | " << fmtG(r.ber(), 3) << " | "
         << fmtG(r.avgCyclesPerPacket(), 6) << " | "
         << fmtG(r.energyPerBitNj(), 3) << " | "
         << fmtG(dsp::rawRateMbps(c.modem) * (1.0 - r.per()), 4) << " |\n";
    }
  };
  for (const ModRows& g : groups) emitRows(flat, g.mod);
  if (fading) {
    for (dsp::Modulation m :
         {dsp::Modulation::kQam16, dsp::Modulation::kQam64})
      emitRows(faded, m);
  }
  std::printf("\n%s\n", md.str().c_str());
  if (minSnr100 >= 0) {
    std::printf("minimum SNR for zero-error 100 Mbps+ operation (QAM-64, "
                "144 Mbps raw): %.4g dB\n", minSnr100);
  } else {
    std::printf("no zero-error 100 Mbps+ operating point on this grid\n");
  }
  std::printf("monotone waterfall: %s   (%llu trials, %.0f ms)\n",
              monotone ? "yes" : "NO",
              static_cast<unsigned long long>(flat.trialsRun), flatMs);

  if (!mdPath.empty()) {
    std::ofstream os(mdPath);
    os << md.str();
    std::printf("wrote %s\n", mdPath.c_str());
  }
  if (jsonPath != "-") {
    std::ofstream os(jsonPath);
    os << "{\n  \"schema\": \"adres.bench_waterfall.v1\",\n"
       << "  \"monotone\": " << (monotone ? "true" : "false") << ",\n"
       << "  \"min_snr_zero_error_100mbps_db\": " << minSnr100 << ",\n"
       << "  \"trials\": " << flat.trialsRun << ",\n"
       << "  \"wall_ms\": " << flatMs << ",\n  \"cells\": [";
    bool first = true;
    auto emitJson = [&os, &first, &cfg](const campaign::CampaignResult& res) {
      for (std::size_t i = 0; i < res.cells.size(); ++i) {
        const campaign::CellResult& r = res.results[i];
        if (!r.done) continue;
        const campaign::Interval ci = campaign::wilson(
            r.packetErrors, r.trials, cfg.sweep.stop.confidence);
        os << (first ? "\n" : ",\n") << "    {\"cell\": \""
           << campaign::cellLabel(res.cells[i]) << "\", \"trials\": "
           << r.trials << ", \"per\": " << r.per() << ", \"per_ci_lo\": "
           << ci.lo << ", \"per_ci_hi\": " << ci.hi << ", \"ber\": " << r.ber()
           << ", \"energy_nj_per_bit\": " << r.energyPerBitNj() << "}";
        first = false;
      }
    };
    emitJson(flat);
    if (fading) emitJson(faded);
    os << "\n  ]\n}\n";
    std::printf("wrote %s\n", jsonPath.c_str());
  }
  if (server) server->stop();
  metrics.clear();
  return monotone ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const SimError& e) {
    std::fprintf(stderr, "bench_waterfall: %s\n", e.what());
    return 1;
  }
}
