// Reproduces Table 2: per-kernel mode / IPC / cycles of the 20 MHz 2x2
// MIMO-OFDM modem running on the simulated processor, plus the preamble /
// data-phase totals and the real-time analysis of §4.
//
//   $ ./bench_table2_profiling [countersPath] [--profile-json PATH]
//         [--profile-folded PATH] [--overhead-max-pct PCT]
//
// When a path is given, the run's adres.counters.v1 dump is written there.
// Any of the flags adds the observability phase: bench::kOverheadPairs
// alternating pairs of cold-reload decodes of the same packet, tracing off
// vs on (the per-launch profiler plus the region-span log).
// --profile-json / --profile-folded dump the cycle-attribution profile
// summed over the traced decodes (adres.profile.v1 JSON / flamegraph
// folded stacks); --overhead-max-pct makes the run fail (exit 1) when the
// median per-pair tracing overhead exceeds PCT percent (the CI
// tracing-overhead gate).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "dsp/channel.hpp"
#include "sdr/modem_program.hpp"
#include "trace/profile.hpp"
#include "trace/telemetry.hpp"

using namespace adres;
using namespace adres::sdr;

namespace {

struct PaperRow {
  const char* name;
  const char* mode;
  double ipc;
  int cycles;
  bool preamble;
};

// Paper Table 2 reference values (preamble rows aggregated per kernel name
// where the paper lists several instances).
const std::vector<PaperRow> kPaper = {
    {"acorr", "mixed", 3.47, 122 + 194, true},
    {"fshift", "CGA", 12.16, 211 + 678, true},
    {"xcorr", "CGA", 9.15, 280, true},
    {"fft", "CGA (2x)", 10.36, 712, true},
    {"remove zero carriers", "VLIW", 1.10, 76, true},
    {"freq offset estimation", "CGA", 6.32, 314, true},
    {"freq offset compensation", "mixed", 4.48, 424, true},
    {"sample ordering", "VLIW", 1.61, 210, true},
    {"SDM processing", "CGA (2x)", 9.90, 1540, true},
    {"sample reordering", "VLIW", 2.69, 256, true},
    {"equalize coeff. calc.", "CGA", 8.38, 636, true},
    {"non-kernel code", "VLIW", 1.69, 452, true},
    {"fshift (data)", "CGA", 13.33, 378, false},
    {"fft (data)", "CGA (2x)", 11.46, 493, false},
    {"data shuffle", "VLIW", 2.60, 100, false},
    {"tracking", "VLIW", 1.83, 117, false},
    {"comp", "CGA", 9.00, 219, false},
    {"demod QAM64", "CGA", 12.04, 224, false},
};

}  // namespace

int main(int argc, char** argv) {
  std::string countersPath;
  std::string profileJsonPath;
  std::string profileFoldedPath;
  double overheadMaxPct = -1.0;
  bench::Args args("bench_table2_profiling",
                   "Table 2 profile of the modem on the simulated processor");
  args.positional("countersPath", "write the adres.counters.v1 dump here",
                  &countersPath);
  args.flag("profile-json", "PATH",
            "write adres.profile.v1 of the traced decodes", &profileJsonPath);
  args.flag("profile-folded", "PATH", "write flamegraph folded stacks",
            &profileFoldedPath);
  args.flag("overhead-max-pct", "PCT",
            "fail if spans+profiler cost more than PCT% vs tracing off",
            &overheadMaxPct);
  if (!args.parse(argc, argv)) return args.parseError() ? 1 : 0;
  const int numSymbols = 16;  // amortizes cold I$ over the pair loop
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = numSymbols;
  Rng rng(5);
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.cfoPpm = 6;
  dsp::MimoChannel ch(cc);
  const auto rx = ch.run(pkt.waveform);

  const ModemOnProcessor m = buildModemProgram(cfg);
  Processor proc;
  const ProcessorRxResult res = runModemOnProcessor(proc, m, rx);
  if (!countersPath.empty()) trace::writeCountersFile(proc, countersPath);
  const int errs = dsp::bitErrors(res.bits, pkt.bits);

  printf("=== Table 2: profiling of the SDM-OFDM code ===\n");
  printf("(this toolchain vs. paper; %d data symbols, packet decoded with %d"
         " bit errors)\n\n", numSymbols, errs);
  printf("%-26s | %-6s %7s %9s | %-9s %6s %7s\n", "kernel", "mode", "IPC",
         "cycles", "paperMode", "pIPC", "pCycles");
  printf("---------------------------------------------------------------"
         "---------------\n");

  const auto& profs = proc.profiles();
  u64 preambleCycles = 0, dataCycles = 0;
  const int pairs = numSymbols / 2;
  for (const PaperRow& pr : kPaper) {
    std::string region = pr.name;
    if (region == "fshift (data)") region = "fshift";
    if (region == "fft (data)") region = "fft";
    const int id = m.program.regionId(region);
    const RegionProfile& p = profs.at(id);
    // Regions shared between preamble and data phases are split by entry
    // counts (preamble entries happen once; data entries scale with pairs).
    u64 cycles = p.cycles;
    double ipc = p.ipc();
    if (region == "fshift" || region == "fft") {
      // entries: preamble uses 1 (fshift coarse) or 1 (fft); the rest are
      // per-pair.  Approximate the split proportionally per entry.
      const u64 perEntry = p.cycles / (p.entries ? p.entries : 1);
      if (pr.preamble) {
        cycles = perEntry;  // one preamble entry
      } else {
        cycles = (p.cycles - perEntry) / static_cast<u64>(pairs);
      }
    } else if (!pr.preamble || region == "non-kernel code") {
      // Data-phase rows are per 2 merged symbols (paper convention).
      if (p.entries > 1 && !pr.preamble)
        cycles = p.cycles / static_cast<u64>(pairs);
    }
    if (pr.preamble)
      preambleCycles += cycles;
    else
      dataCycles += cycles;
    printf("%-26s | %-6s %7.2f %9llu | %-9s %6.2f %7d\n", pr.name,
           p.mode().c_str(), ipc, static_cast<unsigned long long>(cycles),
           pr.mode, pr.ipc, pr.cycles);
  }

  printf("\n=== Totals ===\n");
  printf("preamble processing: %llu cycles = %.1f us   (paper: 6105 = 15.3 us;"
         " air time 24 us incl. MIMO LTFs)\n",
         static_cast<unsigned long long>(preambleCycles),
         static_cast<double>(preambleCycles) / 400.0);
  printf("data processing (2 symbols): %llu cycles = %.1f us  (paper: 1531 ="
         " 3.8 us; air time 8 us)\n",
         static_cast<unsigned long long>(dataCycles),
         static_cast<double>(dataCycles) / 400.0);
  printf("real-time margin (data): %.2fx %s\n",
         8.0 / (static_cast<double>(dataCycles) / 400.0),
         dataCycles < 3200 ? "(real-time at 400 MHz)"
                           : "(needs the paper's tuned DRESC schedules "
                             "for real-time; see EXPERIMENTS.md)");

  const auto& act = proc.activity();
  printf("\nCGA-mode share of active cycles: %.1f%% (paper: 60-72%%)\n",
         100.0 * static_cast<double>(act.cgaCycles) /
             static_cast<double>(act.cgaCycles + act.vliwCycles));
  printf("total run: %llu cycles (%.1f us)\n",
         static_cast<unsigned long long>(res.cycles), res.elapsedUs);

  if (!countersPath.empty())
    printf("wrote %s (schema adres.counters.v1)\n", countersPath.c_str());
  if (profileJsonPath.empty() && profileFoldedPath.empty() &&
      overheadMaxPct < 0)
    return 0;

  // -- Observability: tracing overhead + cycle attribution ------------------
  // Both sides reload the program cold, as the run above did; the traced
  // side must stay bit- and cycle-exact with it.
  RxRunOptions off;
  RxRunOptions on;
  on.profile = true;
  std::vector<RegionSpan> regionLog;
  on.regionLog = &regionLog;
  trace::ProfileSummary profile;
  bool exact = true;
  const auto timedDecode = [&](const RxRunOptions& o) {
    regionLog.clear();
    const auto t0 = std::chrono::steady_clock::now();
    const ProcessorRxResult r = runModemOnProcessor(proc, m, rx, o);
    const double ms = bench::msSince(t0);
    exact = exact && r.cycles == res.cycles && r.bits == res.bits;
    if (o.profile) profile.addProcessor(proc);
    return ms;
  };
  const double overheadPct = bench::pairedMedianOverheadPct(
      bench::kOverheadPairs, [&] { return timedDecode(off); },
      [&] { return timedDecode(on); });
  if (!exact) {
    fprintf(stderr, "observability run diverged from the baseline\n");
    return 1;
  }
  printf("\nobservability: %+.2f%% host overhead (spans+profiler, median of "
         "%d alternating pairs)\n",
         overheadPct, bench::kOverheadPairs);
  for (const trace::CycleSink& s : profile.topSinks(3))
    printf("  cycle sink %-28s %10llu cycles  (%.1f%%)\n", s.name.c_str(),
           static_cast<unsigned long long>(s.cycles), 100.0 * s.share);
  if (!profileJsonPath.empty()) {
    std::ofstream os(profileJsonPath);
    profile.writeJson(os);
    printf("wrote %s\n", profileJsonPath.c_str());
  }
  if (!profileFoldedPath.empty()) {
    std::ofstream os(profileFoldedPath);
    profile.writeFolded(os);
    printf("wrote %s\n", profileFoldedPath.c_str());
  }
  if (overheadMaxPct >= 0 && overheadPct > overheadMaxPct) {
    fprintf(stderr,
            "tracing overhead %.2f%% exceeds the --overhead-max-pct %.2f%% "
            "budget\n",
            overheadPct, overheadMaxPct);
    return 1;
  }
  return 0;
}
