// Collectors shared by the timing-golden regression test and the
// timing_golden_dump generator: run every Table 2 kernel standalone and the
// full 2x2 modem (untraced, and traced into a hashing sink), and reduce the
// timing-visible state to comparable rows.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "dsp/channel.hpp"
#include "sdr/modem_program.hpp"
#include "support/kernel_fixture.hpp"

namespace adres::testsupport {

struct KernelGoldenRow {
  std::string name;
  u64 cycles = 0;
  u64 arrayCycles = 0;
  u64 stallCycles = 0;
  u64 ops = 0;
  u64 routeMoves = 0;
  u64 checksum = 0;  ///< fabricChecksum after the run (bit-exactness)
};

struct RegionGoldenRow {
  std::string name;
  u64 cycles = 0;
  u64 vliwCycles = 0;
  u64 cgaCycles = 0;
  u64 ops = 0;
  u64 entries = 0;
};

struct ModemGolden {
  bool detected = false;
  u32 ltfStart = 0;
  u64 cycles = 0;
  u64 bitsHash = 0;
  u64 countersHash = 0;  ///< hash over the adres.counters.v1-visible stats
  std::vector<RegionGoldenRow> regions;
};

inline u64 fnv1a(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr u64 kFnvSeed = 1469598103934665603ull;

/// Runs every fixture kernel on a fresh fabric at `tier`; one row per
/// kernel.  The fixture is tier-independent: all exec tiers must reproduce
/// the identical rows (the golden test sweeps them).
inline std::vector<KernelGoldenRow> collectKernelGolden(
    ExecTier tier = defaultExecTier()) {
  std::vector<KernelGoldenRow> rows;
  for (const KernelCase& c : tableTwoKernelCases()) {
    Fabric f;
    prepareFabric(f);
    c.setup(f);
    const CgaRunResult r =
        f.array.run(buildKernelPlan(c.config, tier), c.trips);
    KernelGoldenRow row;
    row.name = c.name;
    row.cycles = r.cycles;
    row.arrayCycles = r.arrayCycles;
    row.stallCycles = r.stallCycles;
    row.ops = r.ops;
    row.routeMoves = r.routeMoves;
    u64 h = kFnvSeed;
    h = fnv1a(h, f.l1.stats().reads);
    h = fnv1a(h, f.l1.stats().writes);
    h = fnv1a(h, f.l1.stats().conflicts);
    h = fnv1a(h, f.l1.stats().conflictCycles);
    h = fnv1a(h, f.act.cgaOps);
    h = fnv1a(h, f.act.simdOps);
    h = fnv1a(h, f.act.ops16);
    h = fnv1a(h, f.act.transports);
    h = fnv1a(h, f.act.cdrfCgaAccesses);
    h = fnv1a(h, f.act.l1CgaAccesses);
    h = fnv1a(h, fabricChecksum(f));
    row.checksum = h;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The bench_table2 scenario: QAM-64, 16 symbols, flat 40 dB channel with
/// 6 ppm CFO — the run whose region profile reproduces Table 2 (the counters
/// fixture also runs it at QAM-16).
struct TableTwoScenario {
  sdr::ModemOnProcessor modem;
  std::array<std::vector<cint16>, 2> rx;
};

inline TableTwoScenario tableTwoScenario(
    dsp::Modulation mod = dsp::Modulation::kQam64) {
  dsp::ModemConfig cfg;
  cfg.mod = mod;
  cfg.numSymbols = 16;
  Rng rng(5);
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.cfoPpm = 6;
  dsp::MimoChannel ch(cc);
  return {sdr::buildModemProgram(cfg), ch.run(pkt.waveform)};
}

inline ModemGolden collectModemGolden(ExecTier tier = defaultExecTier()) {
  const TableTwoScenario s = tableTwoScenario();
  const sdr::ModemOnProcessor& m = s.modem;
  Processor proc;
  sdr::RxRunOptions opts;
  opts.exec.tier = tier;
  const sdr::ProcessorRxResult res =
      sdr::runModemOnProcessor(proc, m, s.rx, opts);

  ModemGolden g;
  g.detected = res.detected;
  g.ltfStart = res.ltfStart;
  g.cycles = res.cycles;
  u64 bh = kFnvSeed;
  for (u8 b : res.bits) bh = fnv1a(bh, b);
  g.bitsHash = bh;

  for (std::size_t id = 0; id < m.program.regionNames.size(); ++id) {
    const auto it = proc.profiles().find(static_cast<int>(id));
    RegionGoldenRow row;
    row.name = m.program.regionNames[id];
    if (it != proc.profiles().end()) {
      row.cycles = it->second.cycles;
      row.vliwCycles = it->second.vliwCycles;
      row.cgaCycles = it->second.cgaCycles;
      row.ops = it->second.ops;
      row.entries = it->second.entries;
    }
    g.regions.push_back(std::move(row));
  }

  // Everything the adres.counters.v1 dump is derived from: activity
  // counters, memory stats, RF stats, icache and config-memory stats.
  const auto& act = proc.activity();
  u64 h = kFnvSeed;
  h = fnv1a(h, act.cgaCycles);
  h = fnv1a(h, act.vliwCycles);
  h = fnv1a(h, act.sleepCycles);
  h = fnv1a(h, act.cgaStallCycles);
  h = fnv1a(h, act.vliwStallCycles);
  h = fnv1a(h, act.cgaOps);
  h = fnv1a(h, act.vliwOps);
  h = fnv1a(h, act.cgaRouteMoves);
  h = fnv1a(h, act.simdOps);
  h = fnv1a(h, act.ops16);
  h = fnv1a(h, act.transports);
  h = fnv1a(h, act.cdrfCgaAccesses);
  h = fnv1a(h, act.l1CgaAccesses);
  h = fnv1a(h, act.modeSwitches);
  h = fnv1a(h, proc.l1().stats().reads);
  h = fnv1a(h, proc.l1().stats().writes);
  h = fnv1a(h, proc.l1().stats().conflicts);
  h = fnv1a(h, proc.l1().stats().conflictCycles);
  h = fnv1a(h, proc.regs().stats().reads);
  h = fnv1a(h, proc.regs().stats().writes);
  h = fnv1a(h, proc.regs().predStats().reads);
  h = fnv1a(h, proc.regs().predStats().writes);
  h = fnv1a(h, proc.icache().stats().accesses);
  h = fnv1a(h, proc.icache().stats().misses);
  h = fnv1a(h, proc.configMem().stats().contextFetches);
  {
    const RegFileStats lrf = proc.cga().localRfTotals();
    h = fnv1a(h, lrf.reads);
    h = fnv1a(h, lrf.writes);
  }
  g.countersHash = h;
  return g;
}

/// Event count and FNV-1a hash over every field of every event of a
/// traced run, in emission order.
struct TraceGolden {
  u64 events = 0;
  u64 hash = kFnvSeed;
};

/// Folds each event into a TraceGolden as it arrives; stores nothing.
class HashingTraceSink final : public TraceSink {
 public:
  void event(const TraceEvent& e) override {
    ++golden.events;
    golden.hash = fnv1a(golden.hash, e.cycle);
    golden.hash = fnv1a(golden.hash, e.dur);
    golden.hash = fnv1a(golden.hash, static_cast<u64>(e.kind));
    golden.hash = fnv1a(golden.hash, e.track);
    golden.hash = fnv1a(golden.hash, e.a);
    golden.hash = fnv1a(golden.hash, e.b);
  }
  TraceGolden golden;
};

/// The Table 2 modem run with a trace sink attached: the event stream that
/// Chrome traces and postmortem bundle rings are built from.
inline TraceGolden collectTraceGolden(ExecTier tier = defaultExecTier()) {
  const TableTwoScenario s = tableTwoScenario();
  Processor proc;
  HashingTraceSink sink;
  sdr::RxRunOptions opts;
  opts.exec.tier = tier;
  opts.trace = &sink;
  (void)sdr::runModemOnProcessor(proc, s.modem, s.rx, opts);
  return sink.golden;
}

}  // namespace adres::testsupport
