// perfbench: the whole-receiver benchmark driver (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--spans-out DIR]
//
// --trace 0 sets the workload up three times (setup_s is the median), runs
// closed-loop rounds for S seconds and reports the end-to-end metrics.
// --trace 1 sets up once with spans on, runs S/2 seconds untraced and S/2
// traced, measures the shared layers and reports the per-layer metrics.
// Either way every output check runs; the last stdout line is the JSON
// result, and any failed check exits 1.
#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <thread>

#include "bench.hpp"
#include "cga/exec_tier.hpp"
#include "kernels.hpp"
#include "obs/buildinfo.hpp"

using namespace perfbench;

namespace {

const char* const kWorkloads[] = {"modem_qam64_16sym", "campaign_qam64_waterfall",
                                  "cell_qam16_overload"};

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string spansOut;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--spans-out DIR]\n",
               why);
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--spans-out") o.spansOut = value();
      else if (a == "--smoke") o.smoke = true;
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

std::unique_ptr<Workload> makeWorkload(const Options& o) {
  if (o.workload == kWorkloads[0]) return makeModemWorkload(o.seed, o.smoke);
  if (o.workload == kWorkloads[1]) return makeCampaignWorkload(o.seed, o.smoke);
  if (o.workload == kWorkloads[2]) return makeCellWorkload(o.seed, o.smoke);
  usage(("unknown workload '" + o.workload + "'").c_str());
}

struct LayerMetric {
  std::string name;
  std::string unit;
};

/// Every per-layer metric with its unit, in report order.  Workloads fill
/// what they measure; layers a workload does not use read 0.
std::vector<LayerMetric> perLayerMetrics() {
  std::vector<LayerMetric> m = {
      {"sched.map_ms", "ms"}, {"sched.attempts", "count"}, {"sched.ii_over_mii", "ratio"}};
  const auto kernels = tableTwoKernels(adres::dsp::Modulation::kQam64);
  for (const auto& k : kernels) m.push_back({"sched." + k.name + ".map_ms", "ms"});
  for (const auto& k : kernels) m.push_back({"sched." + k.name + ".ii", "cycles"});
  m.insert(m.end(), {{"sdr.build_ms", "ms"},
                     {"sdr.rx_ns_per_cycle", "ns/cycle"},
                     {"sdr.paper_cycle_ratio", "ratio"},
                     {"cga.plan_build_ms", "ms"}});
  for (const auto& k : kernels) m.push_back({"cga." + k.name + ".ns_per_cycle", "ns/cycle"});
  for (const auto& k : kernels) m.push_back({"cga." + k.name + ".sim_cycles", "cycles"});
  for (const auto& k : kernels) m.push_back({"cga." + k.name + ".stall_share", "ratio"});
  m.insert(m.end(), {{"core.load_cold_us", "us"},
                     {"core.load_warm_us", "us"},
                     {"core.vliw_cycles", "cycles"},
                     {"core.cga_cycles", "cycles"},
                     {"core.vliw_ipc", "ops/cycle"},
                     {"core.cga_ipc", "ops/cycle"},
                     {"mem.l1_bank_conflicts", "count"},
                     {"mem.icache_misses", "count"},
                     {"dsp.vector_trial_us", "us"},
                     {"dsp.scalar_trial_us", "us"},
                     {"platform.queue_wait_p50_us", "us"},
                     {"platform.queue_wait_p99_us", "us"},
                     {"platform.decode_p50_us", "us"},
                     {"platform.decode_p99_us", "us"},
                     {"platform.backpressure_ms", "ms"},
                     {"campaign.produce_batch_ms", "ms"},
                     {"campaign.per", "ratio"},
                     {"cell.run_ms", "ms"},
                     {"cell.expired", "count"},
                     {"cell.overrun", "count"},
                     {"cell.late", "count"},
                     {"cell.useful_decode_frac", "ratio"},
                     {"cell.utilization", "ratio"},
                     {"bench.trace_overhead_pct", "%"},
                     {"bench.span_coverage_pct", "%"}});
  return m;
}

/// Orders `in` by `spec`, filling absent metrics with 0 and rejecting
/// unknown names, malformed names and unit mismatches.
Report canonical(const Report& in, const std::vector<LayerMetric>& spec) {
  static const std::regex kName("[A-Za-z0-9_.-]+");
  Report out;
  for (const LayerMetric& lm : spec) {
    auto it = std::find_if(in.metrics().begin(), in.metrics().end(),
                           [&](const Report::Metric& m) { return m.name == lm.name; });
    if (it != in.metrics().end() && it->unit != lm.unit)
      throw std::runtime_error("perfbench: " + lm.name + " measured in " + it->unit +
                               ", declared in " + lm.unit);
    out.add(lm.name, lm.unit, it == in.metrics().end() ? 0.0 : it->value);
  }
  for (const Report::Metric& m : in.metrics()) {
    const bool known = std::any_of(spec.begin(), spec.end(),
                                   [&](const LayerMetric& lm) { return lm.name == m.name; });
    if (!known || !std::regex_match(m.name, kName))
      throw std::runtime_error("perfbench: unexpected metric " + m.name);
  }
  return out;
}

/// Returns freed heap to the system and restarts the kernel's peak-RSS
/// count, so peakRssMb() covers the measured pass alone: set-up leaves
/// freed pages in per-thread malloc arenas in a run-dependent way.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident memory (VmHWM) since the last resetPeakRss().
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("perfbench: no VmHWM in /proc/self/status");
}

/// Effective host parallelism: N threads each doing the same spin work,
/// against one thread alone.  N on a quiet machine; about 1 in a sandbox
/// that gives one core of throughput whatever nproc says.
double effectiveParallelism(int threads) {
  auto spin = [] {
    volatile u64 x = 1;
    for (int i = 0; i < 30'000'000; ++i) x = x * 6364136223846793005ull + 1;
  };
  auto t0 = Clock::now();
  spin();
  const double one = usSince(t0);
  t0 = Clock::now();
  std::vector<std::thread> ts;
  for (int i = 0; i < threads; ++i) ts.emplace_back(spin);
  for (auto& t : ts) t.join();
  const double all = usSince(t0);
  return all > 0 ? threads * one / all : 0.0;
}

/// Closed-loop rounds until `seconds` have passed and at least one cycle
/// of the workload's distinct rounds has run.  The first pass records each
/// distinct round's simulated outcome in `refs`; every later repeat, in any
/// pass, must reproduce it exactly.
PassSamples runPass(Workload& w, Tracer& tr, double seconds, std::vector<RoundSim>& refs) {
  PassSamples s;
  const std::size_t cycle = w.roundsPerCycle();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < cycle || usSince(t0) < seconds * 1e6; ++i) {
    const RoundSim r = w.round(tr, s, i);
    if (refs.size() < cycle) refs.push_back(r);
    if (!(r == refs[i % cycle])) {
      std::fprintf(stderr, "perfbench: round %zu differs from its first run\n", i);
      ++s.checkFailures;
    }
  }
  return s;
}

/// The simulated totals of one cycle of distinct rounds.
RoundSim cycleTotal(const std::vector<RoundSim>& refs) {
  RoundSim t;
  for (const RoundSim& r : refs) t += r;
  return t;
}

void printReport(const char* title, const Report& r) {
  std::printf("\n== %s ==\n", title);
  for (const Report::Metric& m : r.metrics())
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// Simulated per-kernel cycles beside the paper's Table 2 rows.
void printPaperTable(const Report& layers, int numSymbols) {
  std::printf("\n== simulated cycles per packet vs paper Table 2 (%d symbols) ==\n",
              numSymbols);
  std::printf("  %-24s %12s %12s %8s\n", "paper row", "simulated", "paper", "ratio");
  for (const PaperRow& row : paperRows()) {
    double sim = 0;
    for (const std::string& k : row.kernels) sim += layers.get("cga." + k + ".sim_cycles");
    const double paper = row.preambleCycles + row.perPairCycles * (numSymbols / 2);
    std::printf("  %-24s %12.0f %12.0f %8.2f\n", row.row, sim, paper,
                paper > 0 ? sim / paper : 0.0);
  }
  std::printf("  %-24s %12s %12.0f %8.2f   (6105 + 1531 per symbol pair)\n",
              "packet (sdr)", "", paperPacketCycles(numSymbols),
              layers.get("sdr.paper_cycle_ratio"));
}

void printJson(bool correct, u64 attempted, u64 failed, const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const auto& ms = r.metrics();
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseArgs(argc, argv);

  // Pin the environment: the exec tier is native whatever ADRES_EXEC_TIER
  // says (every policy below also names it explicitly), and host-time
  // numbers come only from an optimized, unsanitized build.
  const char* envTier = std::getenv("ADRES_EXEC_TIER");
  const std::string ignoredTier = envTier ? envTier : "";
  unsetenv("ADRES_EXEC_TIER");
  const adres::obs::BuildInfo& bi = adres::obs::buildInfo();
  if ((bi.buildType != "Release" && bi.buildType != "RelWithDebInfo") ||
      !bi.sanitize.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report host-time metrics from a '%s' "
                 "build (sanitize '%s'); build Release or RelWithDebInfo\n",
                 bi.buildType.c_str(), bi.sanitize.c_str());
    return 3;
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::unique_ptr<Workload> w = makeWorkload(opt);
  const adres::dsp::ModemConfig modem = w->modem();

  std::printf("perfbench %s  seed %llu  %.3g s  trace %d%s\n", w->name(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.smoke ? "  (smoke)" : "");
  std::printf("build: adres %s (%s), %s, %s; exec tier: %s%s\n", bi.version.c_str(),
              bi.gitDescribe.c_str(), bi.buildType.c_str(), bi.compiler.c_str(),
              adres::execTierName(adres::ExecTier::kNative),
              ignoredTier.empty() ? "" : (" (ADRES_EXEC_TIER=" + ignoredTier + " ignored)").c_str());
  std::printf("host: nproc %d; 1 farm worker + the driving thread\n", nproc);
  std::printf("inputs: %016llx\n", static_cast<unsigned long long>(w->inputFingerprint()));

  bool correct = true;
  u64 attempted = 0, failed = 0;
  std::string why;
  Report result;
  try {
    if (!opt.trace) {
      Tracer off(false);
      std::vector<double> setupS;
      for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
        const auto t0 = Clock::now();
        w->setup(off);
        setupS.push_back(usSince(t0) / 1e6);
      }
      resetPeakRss();
      std::vector<RoundSim> refs;
      const PassSamples s = runPass(*w, off, opt.seconds, refs);
      const RoundSim sim = cycleTotal(refs);
      attempted = s.packets;
      failed += s.checkFailures;
      result.add("setup_s", "s", median(setupS));
      const QuietHost q = quietHost(s);
      result.add("packets_per_s", "1/s", q.packetsPerS);
      result.add("latency_p50_ms", "ms", q.latencyP50Us / 1000.0);
      result.add("sim_mcycles_per_s", "Mcycles/s", q.mcyclesPerS);
      result.add("sim_cycles_per_packet", "cycles",
                 static_cast<double>(sim.simCycles) / static_cast<double>(sim.packets));
      result.add("sim_goodput_mbps", "Mbps", sim.goodputMbps());
      result.add("success_frac", "ratio", sim.successFrac());
      result.add("peak_rss_mb", "MB", peakRssMb());
      std::vector<double> rates;
      for (const PassSamples::Round& r : s.rounds) rates.push_back(r.packetsPerS);
      std::printf("sim: %016llx\n", static_cast<unsigned long long>(sim.fingerprint));
      std::printf("rounds %zu, packets %llu; round packets/s min %.4g, median %.4g, "
                  "max %.4g; host metrics over the %zu quiet rounds\n",
                  s.rounds.size(), static_cast<unsigned long long>(s.packets),
                  quantile(rates, 0), median(rates), quantile(rates, 1), q.rounds);
      std::printf("latency: per-round p50 over %zu packets in %zu quiet rounds "
                  "(%zu per round); all rounds pooled: p50 %.4g ms, p95 %.4g ms, "
                  "p99 %.4g ms\n",
                  q.samples, q.rounds, q.rounds ? q.samples / q.rounds : 0,
                  quantile(s.latencyUs, 0.5) / 1000.0, quantile(s.latencyUs, 0.95) / 1000.0,
                  quantile(s.latencyUs, 0.99) / 1000.0);
      std::printf("span coverage: untraced run, no spans\n");
      printReport("end-to-end (untraced)", result);
    } else {
      std::printf("host: effective parallelism %.2f of %d threads\n",
                  effectiveParallelism(std::max(1, nproc)), nproc);
      Tracer tr(true);
      w->setup(tr);
      const double buildMs = median(tr.durations("sdr.build")) / 1000.0;
      const double planMs = median(tr.durations("cga.plan_build")) / 1000.0;
      Tracer off(false);
      std::vector<RoundSim> refs;
      const PassSamples base = runPass(*w, off, opt.seconds / 2, refs);
      const PassSamples traced = runPass(*w, tr, opt.seconds / 2, refs);
      attempted = base.packets + traced.packets;
      failed += base.checkFailures + traced.checkFailures;

      Report layers;
      measureSharedLayers(*w, opt.smoke, layers);
      layers.add("sdr.build_ms", "ms", buildMs);
      layers.add("cga.plan_build_ms", "ms", planMs);
      addPlatformLayers(traced, layers);
      w->layerMetrics(tr, layers);
      const double ppsBase = quietHost(base).packetsPerS;
      const double ppsTraced = quietHost(traced).packetsPerS;
      layers.add("bench.trace_overhead_pct", "%",
                 ppsBase > 0 ? 100.0 * (ppsBase - ppsTraced) / ppsBase : 0.0);
      const double coverage = traced.wallUs > 0 ? 100.0 * traced.spannedUs / traced.wallUs : 0.0;
      layers.add("bench.span_coverage_pct", "%", coverage);
      result = canonical(layers, perLayerMetrics());
      std::printf("sim: %016llx\n",
                  static_cast<unsigned long long>(cycleTotal(refs).fingerprint));
      std::printf("spans: %zu recorded; layer spans cover %.1f%% of per-packet host "
                  "time in the traced pass (%.1f us per packet)\n",
                  tr.size(), coverage,
                  traced.packets ? traced.wallUs / static_cast<double>(traced.packets) : 0.0);
      printReport("per-layer (traced)", result);
      printPaperTable(result, modem.numSymbols);
      if (!opt.spansOut.empty()) {
        const std::string path = opt.spansOut + "/" + w->name() + "-seed" +
                                 std::to_string(opt.seed) + ".trace.json";
        tr.writeJson(path);
        std::printf("wrote %s\n", path.c_str());
      }
    }
    if (!w->finalCheck(&why)) {
      std::fprintf(stderr, "perfbench: %s\n", why.c_str());
      ++failed;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  correct = failed == 0;
  if (attempted == 0) attempted = 1;
  std::printf("checks: %s (%llu failed of %llu)\n", correct ? "passed" : "FAILED",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::fflush(stdout);
  printJson(correct, attempted, failed, result);
  return correct ? 0 : 1;
}
