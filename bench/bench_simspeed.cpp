// Host wall-clock simulation speed of the cycle-accurate model: simulated
// Mcycles/s per Table 2 kernel (standalone CgaArray launches), for the full
// 2x2 modem program, and decoded packets/s through the packet farm.  The
// committed BENCH_simspeed.json at the repo root tracks these numbers
// across PRs (a baseline/after pair per optimization).
//
//   $ ./bench_simspeed [jsonPath] [minMsPerCase] [--exec-tier TIER] \
//         [--profile-json PATH] [--profile-folded PATH] \
//         [--overhead-max-pct PCT]
//
// jsonPath defaults to BENCH_simspeed.json; pass "-" to skip the dump.
// --profile-json / --profile-folded dump the cycle-attribution profiler
// output (adres.profile.v1 JSON / flamegraph folded stacks) of the modem
// phase; --overhead-max-pct makes the run fail (exit 1) when enabling
// spans + profiler costs more than PCT percent host time vs tracing off
// (the CI tracing-overhead smoke).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_args.hpp"
#include "dsp/channel.hpp"
#include "platform/packet_farm.hpp"
#include "support/kernel_fixture.hpp"
#include "trace/profile.hpp"

using namespace adres;
using namespace adres::testsupport;
using adres::bench::msSince;

namespace {

struct Measure {
  std::string name;
  u64 simCycles = 0;  ///< simulated cycles covered by the timed loop
  u64 runs = 0;
  double hostMs = 0;
  double mcyclesPerSec() const {
    return hostMs > 0 ? static_cast<double>(simCycles) / (hostMs * 1e3) : 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = "BENCH_simspeed.json";
  double minMs = 150.0;
  std::string profileJsonPath;
  std::string profileFoldedPath;
  double overheadMaxPct = -1.0;
  bench::Args args("bench_simspeed", "host simulation-speed benchmark");
  args.positional("jsonPath", "BENCH_simspeed.json path ('-' = skip)",
                  &jsonPath);
  args.positional("minMsPerCase", "minimum timed ms per kernel case", &minMs);
  args.flag("profile-json", "PATH", "write adres.profile.v1 of the modem phase",
            &profileJsonPath);
  args.flag("profile-folded", "PATH", "write flamegraph folded stacks",
            &profileFoldedPath);
  args.flag("overhead-max-pct", "PCT",
            "fail if spans+profiler cost more than PCT% vs tracing off",
            &overheadMaxPct);
  bench::ExecTierFlag tierFlag(args);
  if (!args.parse(argc, argv)) return args.parseError() ? 1 : 0;
  ExecTier tier;
  try {
    tier = tierFlag.resolve();
  } catch (const SimError& e) {
    fprintf(stderr, "bench_simspeed: %s\n", e.what());
    return 1;
  }
  printf("exec tier: %s\n", execTierName(tier));

  // -- Per-kernel: standalone launches on a private fabric ------------------
  std::vector<Measure> kernels;
  for (const KernelCase& c : tableTwoKernelCases()) {
    Fabric f;
    prepareFabric(f);
    c.setup(f);
    (void)f.array.run(buildKernelPlan(c.config, tier), c.trips);  // warm-up
    Measure m;
    m.name = c.name;
    const auto t0 = std::chrono::steady_clock::now();
    do {
      // Re-seed the live-ins every launch so pointers/indices the kernel
      // writes back never walk out of the fixture's address plan.  The plan
      // is rebuilt per launch, as in the committed BENCH_simspeed.json
      // baseline rows.
      c.setup(f);
      const CgaRunResult r =
          f.array.run(buildKernelPlan(c.config, tier), c.trips);
      m.simCycles += r.cycles;
      ++m.runs;
      m.hostMs = msSince(t0);
    } while (m.hostMs < minMs);
    kernels.push_back(m);
    printf("kernel %-12s %8.2f Mcycles/s  (%llu runs, %llu sim cycles, %.0f ms)\n",
           m.name.c_str(), m.mcyclesPerSec(),
           static_cast<unsigned long long>(m.runs),
           static_cast<unsigned long long>(m.simCycles), m.hostMs);
  }

  // -- Full modem: the Table 2 scenario -------------------------------------
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 16;
  Rng rng(5);
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.cfoPpm = 6;
  dsp::MimoChannel ch(cc);
  const auto rx = ch.run(pkt.waveform);
  const sdr::ModemOnProcessor modem = sdr::buildModemProgram(cfg);

  sdr::RxRunOptions tierOpts;
  tierOpts.exec.tier = tier;

  Measure mm;
  mm.name = "modem";
  {
    Processor proc;
    const sdr::ProcessorRxResult warm =
        sdr::runModemOnProcessor(proc, modem, rx, tierOpts);
    if (!warm.detected || dsp::bitErrors(warm.bits, pkt.bits) != 0) {
      fprintf(stderr, "modem warm-up run did not decode cleanly\n");
      return 1;
    }
    const auto t0 = std::chrono::steady_clock::now();
    do {
      const sdr::ProcessorRxResult r =
          sdr::runModemOnProcessor(proc, modem, rx, tierOpts);
      mm.simCycles += r.cycles;
      ++mm.runs;
      mm.hostMs = msSince(t0);
    } while (mm.hostMs < 2 * minMs);
  }
  printf("modem (16 sym)      %8.2f Mcycles/s  (%llu runs, %.2f ms/run)\n",
         mm.mcyclesPerSec(), static_cast<unsigned long long>(mm.runs),
         mm.hostMs / static_cast<double>(mm.runs));

  // -- Observability: span/profiler overhead + cycle attribution ------------
  // Paired baseline/instrumented modem runs.  The instrumented side enables
  // the per-launch profiler and the region-span log (the farm's span
  // machinery) — both must keep the decode bit- and cycle-exact and cost
  // only a few percent of host time.
  trace::ProfileSummary profile;
  double obsOffMs = 0, obsOnMs = 0, overheadPct = 0;
  u64 obsRuns = 0;
  {
    Processor proc;
    sdr::RxRunOptions off = tierOpts;
    sdr::RxRunOptions on = tierOpts;
    on.profile = true;
    std::vector<RegionSpan> regionLog;
    on.regionLog = &regionLog;
    const sdr::ProcessorRxResult refRun = sdr::runModemOnProcessor(proc, modem, rx, off);
    for (int attempt = 0; attempt < 2; ++attempt) {
      // One retry at a doubled budget if the first measurement lands over
      // the threshold (noise on a loaded host).
      const double target = minMs * (attempt ? 2.0 : 1.0);
      obsOffMs = obsOnMs = 0;
      obsRuns = 0;
      while (obsOffMs < target) {
        auto t0 = std::chrono::steady_clock::now();
        const sdr::ProcessorRxResult a = sdr::runModemOnProcessor(proc, modem, rx, off);
        obsOffMs += msSince(t0);
        regionLog.clear();
        t0 = std::chrono::steady_clock::now();
        const sdr::ProcessorRxResult b = sdr::runModemOnProcessor(proc, modem, rx, on);
        obsOnMs += msSince(t0);
        profile.addProcessor(proc);
        ++obsRuns;
        if (a.cycles != refRun.cycles || b.cycles != refRun.cycles ||
            a.bits != refRun.bits || b.bits != refRun.bits) {
          fprintf(stderr, "observability run diverged from the baseline\n");
          return 1;
        }
      }
      overheadPct = obsOffMs > 0 ? 100.0 * (obsOnMs - obsOffMs) / obsOffMs : 0;
      if (overheadMaxPct < 0 || overheadPct <= overheadMaxPct) break;
    }
    printf("observability       %+7.2f%% host overhead (spans+profiler, "
           "%llu paired runs)\n",
           overheadPct, static_cast<unsigned long long>(obsRuns));
    for (const trace::CycleSink& s : profile.topSinks(3))
      printf("  cycle sink %-28s %10llu cycles  (%.1f%%)\n", s.name.c_str(),
             static_cast<unsigned long long>(s.cycles), 100.0 * s.share);
  }
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

  // -- Packet farm: decoded packets per host second -------------------------
  const int farmPackets = 32;
  dsp::ModemConfig fcfg;
  fcfg.mod = dsp::Modulation::kQam64;
  fcfg.numSymbols = 4;
  std::vector<std::array<std::vector<cint16>, 2>> waves;
  for (int i = 0; i < farmPackets; ++i) {
    Rng prng(1000 + static_cast<u64>(i));
    const dsp::TxPacket p = dsp::transmit(fcfg, prng);
    dsp::ChannelConfig pcc;
    pcc.taps = 2;
    pcc.snrDb = 38;
    pcc.cfoPpm = 5;
    pcc.seed = static_cast<u64>(i + 1);
    dsp::MimoChannel pch(pcc);
    waves.push_back(pch.run(p.waveform));
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = std::max(1, std::min(4, hw));
  (void)platform::modemProgramFor(fcfg);  // pay the program build up front
  platform::FarmConfig fc;
  fc.modem = fcfg;
  fc.numWorkers = workers;
  fc.run.exec.tier = tier;
  double farmMs = 0;
  {
    platform::PacketFarm farm(fc);
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& w : waves) farm.submit(w);
    const auto outcomes = farm.finish();
    farmMs = msSince(t0);
    if (static_cast<int>(outcomes.size()) != farmPackets) {
      fprintf(stderr, "farm dropped packets\n");
      return 1;
    }
  }
  const double pps = static_cast<double>(farmPackets) / (farmMs * 1e-3);
  printf("farm                %8.1f packets/s  (%d packets x %d sym, %d workers)\n",
         pps, farmPackets, fcfg.numSymbols, workers);

  if (jsonPath != "-") {
    std::ofstream os(jsonPath);
    os << "{\n  \"schema\": \"adres.bench_simspeed.v1\",\n  \"execTier\": \""
       << execTierName(tier) << "\",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      const Measure& m = kernels[i];
      char buf[256];
      snprintf(buf, sizeof buf,
               "    {\"name\": \"%s\", \"simCycles\": %llu, \"runs\": %llu, "
               "\"hostMs\": %.1f, \"mcyclesPerSec\": %.3f}%s\n",
               m.name.c_str(), static_cast<unsigned long long>(m.simCycles),
               static_cast<unsigned long long>(m.runs), m.hostMs,
               m.mcyclesPerSec(), i + 1 < kernels.size() ? "," : "");
      os << buf;
    }
    os << "  ],\n";
    char buf[512];
    snprintf(buf, sizeof buf,
             "  \"modem\": {\"numSymbols\": %d, \"simCycles\": %llu, "
             "\"runs\": %llu, \"hostMs\": %.1f, \"mcyclesPerSec\": %.3f, "
             "\"msPerPacket\": %.3f},\n",
             cfg.numSymbols, static_cast<unsigned long long>(mm.simCycles),
             static_cast<unsigned long long>(mm.runs), mm.hostMs,
             mm.mcyclesPerSec(), mm.hostMs / static_cast<double>(mm.runs));
    os << buf;
    snprintf(buf, sizeof buf,
             "  \"farm\": {\"packets\": %d, \"numSymbols\": %d, "
             "\"workers\": %d, \"wallMs\": %.1f, \"packetsPerSec\": %.1f},\n",
             farmPackets, fcfg.numSymbols, workers, farmMs, pps);
    os << buf;
    snprintf(buf, sizeof buf,
             "  \"observability\": {\"offMs\": %.1f, \"onMs\": %.1f, "
             "\"overheadPct\": %.2f, \"pairedRuns\": %llu}\n}\n",
             obsOffMs, obsOnMs, overheadPct,
             static_cast<unsigned long long>(obsRuns));
    os << buf;
    printf("wrote %s\n", jsonPath.c_str());
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
