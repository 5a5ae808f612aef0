// Collectors shared by the counters-golden regression test and the
// timing_golden_dump --counters generator: the byte-level digests of every
// counter rendering — the adres.counters.v1 processor dump after a Table 2
// modem decode and the adres_sim_counter exposition lines of a 3-worker
// farm — for one modulation.
#pragma once

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "dsp/channel.hpp"
#include "obs/metrics.hpp"
#include "platform/packet_farm.hpp"
#include "support/timing_golden_common.hpp"
#include "trace/telemetry.hpp"

namespace adres::testsupport {

/// FNV-1a over the bytes of one dump, plus its length.
struct DumpDigest {
  u64 hash = 0;
  u64 bytes = 0;
};

inline DumpDigest digestOf(const std::string& s) {
  DumpDigest d;
  d.hash = 1469598103934665603ull;
  for (char c : s) {
    d.hash ^= static_cast<unsigned char>(c);
    d.hash *= 1099511628211ull;
  }
  d.bytes = s.size();
  return d;
}

struct CountersGolden {
  DumpDigest processor;        ///< writeCountersJson(proc) after the decode
  DumpDigest simCounterLines;  ///< adres_sim_counter lines after finish()
};

inline const char* modulationLabel(dsp::Modulation mod) {
  return mod == dsp::Modulation::kQam64 ? "qam64" : "qam16";
}

/// The fixed farm packet set: 4-symbol packets through varied multipath
/// channels (SNR, CFO and tap count differ per packet, so the sync search
/// and tracking glue take different paths).
inline std::vector<std::array<std::vector<cint16>, 2>> countersGoldenPackets(
    const dsp::ModemConfig& cfg) {
  struct Chan {
    int taps;
    double snrDb;
    double cfoPpm;
  };
  constexpr Chan kChans[] = {{1, 40, 6},  {2, 30, 10}, {3, 25, -8},
                             {2, 18, 15}, {3, 35, 0},  {1, 22, -12}};
  std::vector<std::array<std::vector<cint16>, 2>> waves;
  u64 seed = 7;
  for (const Chan& c : kChans) {
    Rng rng(seed);
    const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
    dsp::ChannelConfig cc;
    cc.taps = c.taps;
    cc.flat = c.taps == 1;
    cc.snrDb = c.snrDb;
    cc.cfoPpm = c.cfoPpm;
    cc.seed = seed * 31;
    dsp::MimoChannel ch(cc);
    waves.push_back(ch.run(pkt.waveform));
    ++seed;
  }
  return waves;
}

inline CountersGolden collectCountersGolden(dsp::Modulation mod) {
  CountersGolden g;

  // The Table 2 decode (16 symbols, flat 40 dB, 6 ppm CFO) at `mod`.
  {
    const TableTwoScenario s = tableTwoScenario(mod);
    Processor proc;
    (void)sdr::runModemOnProcessor(proc, s.modem, s.rx, sdr::RxRunOptions{});
    std::ostringstream os;
    trace::writeCountersJson(proc, os);
    g.processor = digestOf(os.str());
  }

  // An ordered 3-worker farm over the fixed packet set.
  dsp::ModemConfig cfg;
  cfg.mod = mod;
  cfg.numSymbols = 4;
  platform::FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 3;
  fc.ordered = true;
  obs::MetricsRegistry reg;
  platform::PacketFarm farm(fc);
  farm.registerMetrics(reg);
  for (const auto& rx : countersGoldenPackets(cfg)) (void)farm.submit(rx);
  (void)farm.finish();
  {
    std::ostringstream os;
    reg.writePrometheus(os);
    std::istringstream in(os.str());
    std::string line, lines;
    while (std::getline(in, line)) {
      if (line.rfind("adres_sim_counter{", 0) == 0) lines += line + '\n';
    }
    g.simCounterLines = digestOf(lines);
  }
  reg.clear();  // teardown barrier before the farm dies
  return g;
}

}  // namespace adres::testsupport
