// Reproduces the 100 Mbps+ headline (§1/§4): end-to-end packets through
// the channel and the processor-mapped receiver, reporting raw rate,
// decode correctness, processing time vs air time, and the average power
// of the run (the paper's 220 mW @ 100 Mbps+ operating point).
//
//   $ ./bench_throughput [countersPath]
//
// When a path is given, the last packet's adres.counters.v1 dump is
// written there (no file is written otherwise).
#include <cstdio>
#include <string>

#include "bench_args.hpp"
#include "dsp/channel.hpp"
#include "power/energy_model.hpp"
#include "sdr/modem_program.hpp"
#include "trace/telemetry.hpp"

using namespace adres;

int main(int argc, char** argv) {
  std::string countersPath;
  bench::Args args("bench_throughput", "100 Mbps+ operating-point check");
  args.positional("countersPath",
                  "write the last packet's adres.counters.v1 dump here",
                  &countersPath);
  if (!args.parse(argc, argv)) return args.parseError() ? 1 : 0;
  printf("=== 100 Mbps+ operating point (QAM-64, 2x2 SDM, 20 MHz) ===\n");
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 16;
  printf("raw rate: %.0f Mbps (%d bits / 4 us OFDM symbol)\n",
         dsp::rawRateMbps(cfg), dsp::bitsPerOfdmSymbol(cfg));

  const sdr::ModemOnProcessor m = sdr::buildModemProgram(cfg);
  int packets = 0, packetsOk = 0;
  long totalBits = 0, totalErrs = 0;
  double totalUs = 0, avgMw = 0;
  // Three channel realizations; seed 3 draws a deep ZF fade (the uncoded
  // modem's known floor — EXPERIMENTS.md), the other two decode clean.
  const u64 seeds[] = {2, 3, 5};
  for (u64 seed : seeds) {
    Rng rng(seed * 17);
    const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
    dsp::ChannelConfig cc;
    cc.taps = 2;
    cc.snrDb = 38;
    cc.cfoPpm = 5;
    cc.seed = seed;
    dsp::MimoChannel ch(cc);
    const auto rx = ch.run(pkt.waveform);
    Processor proc;
    const sdr::ProcessorRxResult res = sdr::runModemOnProcessor(proc, m, rx);
    if (seed == seeds[2] && !countersPath.empty())
      trace::writeCountersFile(proc, countersPath);
    const int errs = dsp::bitErrors(res.bits, pkt.bits);
    ++packets;
    if (res.detected && errs == 0) ++packetsOk;
    totalBits += static_cast<long>(pkt.bits.size());
    totalErrs += errs;
    totalUs += res.elapsedUs;
    avgMw += power::analyze(proc).averageActiveMw;
  }
  avgMw /= packets;
  const double airUs =
      packets * (dsp::kPreambleLen + cfg.numSymbols * dsp::kSymbolLen) / 20.0;
  printf("packets decoded error-free: %d / %d  (BER %.2e over 2-tap "
         "multipath @ 38 dB, 5 ppm CFO)\n", packetsOk, packets,
         static_cast<double>(totalErrs) / static_cast<double>(totalBits));
  printf("processing time: %.1f us for %.1f us of air time (%.2fx "
         "real-time at 400 MHz)\n", totalUs, airUs, airUs / totalUs);
  printf("average active power during processing: %.0f mW (paper: 220 mW)\n",
         avgMw);
  printf("delivered goodput while processing: %.1f Mbps\n",
         static_cast<double>(totalBits - totalErrs) / totalUs);
  if (!countersPath.empty())
    printf("wrote %s (schema adres.counters.v1, last packet)\n",
           countersPath.c_str());
  return 0;
}
