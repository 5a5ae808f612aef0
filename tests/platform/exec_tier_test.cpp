// Exec-tier equivalence at the platform layer (DESIGN.md §14): a packet
// farm run at each ExecTier must produce bit- and cycle-exact outcomes and
// identical live adres_sim_counter totals, and the same packets re-run
// through runModemOnProcessor with profiling must give an identical
// adres.profile.v1 cycle-attribution partition — the tiers differ only in
// host speed.  Also pins that a tier/plan mismatch fails loudly at load.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "dsp/channel.hpp"
#include "platform/packet_farm.hpp"
#include "trace/profile.hpp"

namespace adres::platform {
namespace {

dsp::ModemConfig smallConfig() {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 2;
  return cfg;
}

std::array<std::vector<cint16>, 2> makeWave(const dsp::ModemConfig& cfg,
                                            int index) {
  Rng rng(100 + static_cast<u64>(index));
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.cfoPpm = 6;
  cc.seed = static_cast<u64>(index + 1);
  dsp::MimoChannel ch(cc);
  return ch.run(pkt.waveform);
}

struct TierRun {
  std::vector<RxOutcome> outs;
  trace::CounterBlock counters;
  trace::ProfileSummary profile;
  std::string profileJson;
};

TierRun runFarmAt(ExecTier tier,
                  const std::vector<std::array<std::vector<cint16>, 2>>& waves) {
  FarmConfig fc;
  fc.modem = smallConfig();
  fc.numWorkers = 2;
  fc.ordered = true;
  fc.run.exec.tier = tier;
  PacketFarm farm(fc);
  for (const auto& rx : waves) (void)farm.submit(rx);
  TierRun r;
  r.outs = farm.finish();
  r.counters = farm.liveCounters();
  // The profile of the same packets at the same tier: a farm does not
  // profile, a recorded decode is re-run with profiling on.
  const auto modem = modemProgramFor(fc.modem);
  sdr::RxRunOptions opts;
  opts.exec.tier = tier;
  opts.profile = true;
  Processor proc;
  for (const auto& rx : waves) {
    (void)sdr::runModemOnProcessor(proc, *modem, rx, opts);
    r.profile.addProcessor(proc);
  }
  std::ostringstream os;
  r.profile.writeJson(os);
  r.profileJson = os.str();
  return r;
}

TEST(ExecTierFarm, AllTiersAreBitAndCycleExact) {
  const dsp::ModemConfig cfg = smallConfig();
  std::vector<std::array<std::vector<cint16>, 2>> waves;
  for (int i = 0; i < 4; ++i) waves.push_back(makeWave(cfg, i));

  const TierRun ref = runFarmAt(ExecTier::kReference, waves);
  const TierRun native = runFarmAt(ExecTier::kNative, waves);

  ASSERT_EQ(ref.outs.size(), waves.size());
  ASSERT_EQ(native.outs.size(), ref.outs.size());
  for (std::size_t i = 0; i < ref.outs.size(); ++i) {
    const RxOutcome& a = ref.outs[i];
    const RxOutcome& b = native.outs[i];
    SCOPED_TRACE("packet " + std::to_string(i));
    EXPECT_TRUE(b.result.halted());
    EXPECT_EQ(a.result.detected, b.result.detected);
    EXPECT_EQ(a.result.ltfStart, b.result.ltfStart);
    EXPECT_EQ(a.result.bits, b.result.bits);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
  }
  // Live adres_sim_counter totals (activity, memory, RF, icache,
  // config-memory stats summed across every worker) are identical.
  EXPECT_EQ(ref.counters, native.counters);
  EXPECT_EQ(ref.profile.regions, native.profile.regions);
  // The adres.profile.v1 cycle-attribution partition — per-region and
  // per-(region, kernel) issue/idle/stall/overhead splits — is identical
  // down to the serialized document.
  EXPECT_EQ(ref.profile.runs, static_cast<u64>(waves.size()));
  EXPECT_EQ(ref.profile.kernels, native.profile.kernels);
  EXPECT_EQ(ref.profileJson, native.profileJson);
}

TEST(ExecTierFarm, MismatchedPolicyTierFailsLoudlyAtLoad) {
  const dsp::ModemConfig cfg = smallConfig();
  const auto modem = modemProgramFor(cfg);
  Processor proc;
  ExecPolicy pol;
  pol.tier = ExecTier::kNative;
  pol.plans = modem->plansFor(ExecTier::kReference);
  EXPECT_THROW(proc.load(modem->program, pol), SimError);
}

}  // namespace
}  // namespace adres::platform
