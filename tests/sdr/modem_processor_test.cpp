// End-to-end: the full receiver program on the simulated processor decodes
// a transmitted packet, and its region profiles have the Table 2 shape.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "dsp/channel.hpp"
#include "sdr/modem_program.hpp"

namespace adres::sdr {
namespace {

TEST(ModemOnProcessor, DecodesCleanPacket) {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 4;
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

  EXPECT_TRUE(res.detected);
  EXPECT_NEAR(static_cast<int>(res.ltfStart), 190, 3) << "fine timing";
  ASSERT_EQ(res.bits.size(), pkt.bits.size());
  EXPECT_EQ(dsp::bitErrors(res.bits, pkt.bits), 0)
      << "clean channel must decode error-free";
}

TEST(ModemOnProcessor, DecodesCleanQam16Packet) {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam16;
  cfg.numSymbols = 4;
  Rng rng(6);
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

  EXPECT_TRUE(res.detected);
  ASSERT_EQ(res.bits.size(), pkt.bits.size());
  EXPECT_EQ(dsp::bitErrors(res.bits, pkt.bits), 0)
      << "clean channel must decode QAM-16 error-free";
}

TEST(ModemOnProcessor, DecodesMultipathPacket) {
  dsp::ModemConfig cfg;
  cfg.numSymbols = 4;
  Rng rng(9);
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.taps = 2;
  cc.snrDb = 38;
  cc.cfoPpm = 5;
  cc.seed = 5;
  dsp::MimoChannel ch(cc);
  const auto rx = ch.run(pkt.waveform);

  const ModemOnProcessor m = buildModemProgram(cfg);
  Processor proc;
  const ProcessorRxResult res = runModemOnProcessor(proc, m, rx);
  ASSERT_TRUE(res.detected);
  const double ber = static_cast<double>(dsp::bitErrors(res.bits, pkt.bits)) /
                     static_cast<double>(pkt.bits.size());
  EXPECT_LT(ber, 0.01) << "multipath at 38 dB";
}

TEST(ModemOnProcessor, RunOptionsCycleBudgetReportsStopReason) {
  dsp::ModemConfig cfg;
  cfg.numSymbols = 2;
  Rng rng(5);
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  dsp::MimoChannel ch(cc);
  const auto rx = ch.run(pkt.waveform);

  const ModemOnProcessor m = buildModemProgram(cfg);
  Processor proc;
  RxRunOptions opts;
  opts.maxCycles = 1000;  // far below a full decode
  const ProcessorRxResult res = runModemOnProcessor(proc, m, rx, opts);
  EXPECT_EQ(res.stop, StopReason::kMaxCycles);
  EXPECT_FALSE(res.halted());
  EXPECT_FALSE(res.detected);
  EXPECT_TRUE(res.bits.empty());
  EXPECT_LE(res.cycles, 1000u + 64u) << "stops near the budget";

  // The same processor finishes the packet with the default budget.
  Processor fresh;
  const ProcessorRxResult full = runModemOnProcessor(fresh, m, rx);
  EXPECT_EQ(full.stop, StopReason::kHalt);
  EXPECT_TRUE(full.detected);
  EXPECT_EQ(dsp::bitErrors(full.bits, pkt.bits), 0);
}

TEST(ModemOnProcessor, CountersJsonWriteFailureThrowsNamingThePath) {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 2;
  Rng rng(5);
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  dsp::MimoChannel ch(cc);
  const auto rx = ch.run(pkt.waveform);
  const ModemOnProcessor m = buildModemProgram(cfg);

  // The dump's directory sits under a regular file, so it cannot exist.
  const std::string blocker =
      testing::TempDir() + "adres_counters_json_blocker";
  std::filesystem::remove_all(blocker);
  std::ofstream(blocker) << "not a directory";
  RxRunOptions opts;
  opts.countersJsonPath = blocker + "/modem.counters.json";
  Processor proc;
  try {
    (void)runModemOnProcessor(proc, m, rx, opts);
    ADD_FAILURE() << "an unwritable counters path must throw";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find(opts.countersJsonPath),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(blocker);
}

TEST(ModemOnProcessor, ProfileHasTable2Shape) {
  dsp::ModemConfig cfg;
  cfg.numSymbols = 4;
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
  (void)runModemOnProcessor(proc, m, rx);

  const auto& profs = proc.profiles();
  const auto get = [&](const std::string& name) -> const RegionProfile& {
    return profs.at(m.program.regionId(name));
  };

  // Every Table 2 kernel region exists and consumed cycles.
  for (const char* name :
       {"acorr", "fshift", "xcorr", "fft", "remove zero carriers",
        "freq offset estimation", "freq offset compensation",
        "sample ordering", "SDM processing", "sample reordering",
        "equalize coeff. calc.", "data shuffle", "tracking", "comp",
        "demod QAM64", "non-kernel code"}) {
    ASSERT_GT(get(name).cycles, 0u) << name;
  }

  // Mode shape: the CGA-dominated kernels vs the VLIW ones (Table 2).
  EXPECT_EQ(get("SDM processing").mode(), "CGA");
  EXPECT_EQ(get("comp").mode(), "CGA");
  EXPECT_EQ(get("non-kernel code").mode(), "VLIW");
  EXPECT_EQ(get("tracking").mode(), "VLIW");
  // CGA kernels reach much higher IPC than VLIW glue.
  EXPECT_GT(get("comp").ipc(), 2.0);
  EXPECT_LT(get("non-kernel code").ipc(), 3.0);
  // The paper's headline: most time is spent in CGA mode.
  const auto& act = proc.activity();
  EXPECT_GT(act.cgaCycles, act.vliwCycles / 4)
      << "substantial CGA-mode share";
}

}  // namespace
}  // namespace adres::sdr
