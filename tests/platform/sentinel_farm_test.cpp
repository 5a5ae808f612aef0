// End-to-end self-auditing runtime: a farm with seeded fault injection must
// be caught by the divergence sentinel (structured IntegrityEvent + a
// replayable adres.postmortem.v1 bundle whose divergence CONFIRMs under
// standalone re-execution), a clean farm at 100% sampling must audit every
// packet with zero divergences — also when a per-job cycle budget stops the
// decode — a farm with capture off must write nothing, and the readiness /
// capture / metrics surfaces must behave.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "dsp/channel.hpp"
#include "obs/metrics.hpp"
#include "platform/packet_farm.hpp"
#include "platform/replay.hpp"

namespace adres::platform {
namespace {

namespace fs = std::filesystem;

dsp::ModemConfig smallConfig() {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 2;
  return cfg;
}

/// A decodable packet through a clean per-index channel (error-free at
/// 40 dB); returns waveforms and golden payload bits.
std::pair<std::array<std::vector<cint16>, 2>, std::vector<u8>> makePacket(
    const dsp::ModemConfig& cfg, int index) {
  Rng rng(100 + static_cast<u64>(index));
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.cfoPpm = 6;
  cc.seed = static_cast<u64>(index + 1);
  dsp::MimoChannel ch(cc);
  return {ch.run(pkt.waveform), pkt.bits};
}

std::string freshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

TEST(SentinelFarm, CleanTrafficAtFullSamplingShowsZeroDivergences) {
  const dsp::ModemConfig cfg = smallConfig();
  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 2;
  fc.queueCapacity = 4;
  fc.ordered = true;
  fc.sentinel.enabled = true;
  fc.sentinel.sampleRate = 1.0;
  PacketFarm farm(fc);

  constexpr int kPackets = 4;
  std::vector<std::vector<u8>> golden;
  for (int i = 0; i < kPackets; ++i) {
    auto [rx, bits] = makePacket(cfg, i);
    golden.push_back(std::move(bits));
    (void)farm.submit(std::move(rx));
  }
  const std::vector<RxOutcome> outs = farm.finish();

  ASSERT_EQ(outs.size(), static_cast<std::size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    EXPECT_TRUE(outs[static_cast<std::size_t>(i)].result.halted());
    EXPECT_EQ(outs[static_cast<std::size_t>(i)].result.bits,
              golden[static_cast<std::size_t>(i)])
        << "sentinel auditing must not perturb decoded output";
  }
  ASSERT_NE(farm.sentinel(), nullptr);
  EXPECT_EQ(farm.sentinel()->sampled(), static_cast<u64>(kPackets))
      << "sampleRate 1.0 audits every packet";
  EXPECT_EQ(farm.divergences(), 0u);
  EXPECT_TRUE(farm.integrityEvents().empty());
}

TEST(SentinelFarm, CatchesInjectedBitFlipsWithAReplayableBundle) {
  const dsp::ModemConfig cfg = smallConfig();
  const std::string dir = freshDir("adres_sentinel_fault");

  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 2;
  fc.queueCapacity = 4;
  fc.ordered = true;
  fc.run.faultInjectBitFlipSeed = 0xBADC0DEull;  // corrupt the primary path
  fc.sentinel.enabled = true;
  fc.sentinel.sampleRate = 1.0;
  fc.postmortem.enabled = true;
  fc.postmortem.dir = dir;
  PacketFarm farm(fc);

  constexpr int kPackets = 3;
  for (int i = 0; i < kPackets; ++i)
    (void)farm.submit(makePacket(cfg, i).first);
  const std::vector<RxOutcome> outs = farm.finish();
  ASSERT_EQ(outs.size(), static_cast<std::size_t>(kPackets));

  // The shadow decoder runs without the fault seed, so every audited packet
  // must surface as a bit divergence — audited on the tier the primary
  // does not use.
  const char* const shadowTier =
      fc.run.exec.tier == ExecTier::kNative ? "reference" : "native";
  ASSERT_NE(farm.sentinel(), nullptr);
  EXPECT_STREQ(execTierName(farm.sentinel()->shadowTier()), shadowTier);
  const std::vector<obs::IntegrityEvent> events = farm.integrityEvents();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(farm.divergences(), static_cast<u64>(kPackets));
  for (const obs::IntegrityEvent& ev : events) {
    EXPECT_EQ(ev.kind, obs::IntegrityEvent::Kind::kBits);
    EXPECT_TRUE(ev.bitsDiverged);
    EXPECT_GT(ev.bitErrors, 0u);
    EXPECT_EQ(ev.shadowTier, shadowTier);
    ASSERT_FALSE(ev.bundlePath.empty());
    EXPECT_TRUE(fs::exists(ev.bundlePath));
  }
  ASSERT_NE(farm.postmortemWriter(), nullptr);
  EXPECT_EQ(farm.postmortemWriter()->written(), static_cast<u64>(kPackets));

  // The bundle is the incident, frozen: a standalone replay reproduces the
  // shadow's clean decode AND the fault-seeded corrupted primary.
  const obs::PostmortemBundle b = obs::loadPostmortemBundle(events[0].bundlePath);
  EXPECT_EQ(b.trigger, "divergence");
  EXPECT_EQ(b.faultInjectSeed, 0xBADC0DEull);
  EXPECT_EQ(b.execTier, execTierName(fc.run.exec.tier));
  EXPECT_EQ(b.shadowTier, shadowTier);
  ASSERT_TRUE(b.shadow.has_value());
  EXPECT_NE(b.primary.bits, b.shadow->bits);
  const ReplayReport rep = replayPostmortem(b);
  EXPECT_TRUE(rep.matchesShadow);
  EXPECT_FALSE(rep.matchesPrimary);
  EXPECT_TRUE(rep.faultReproducesPrimary);
  EXPECT_TRUE(rep.consistent) << rep.verdict;
  EXPECT_NE(rep.verdict.find("CONFIRMED"), std::string::npos) << rep.verdict;
}

TEST(SentinelFarm, CaptureOffWritesNoFileAndNoDirectory) {
  // postmortem.enabled is the one bundle switch: with it off, a sentinel
  // farm reports divergences as events only, and neither a divergence nor a
  // budget stop writes a file or creates the store directory.
  const dsp::ModemConfig cfg = smallConfig();
  const std::string dir = freshDir("adres_sentinel_capture_off");

  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 2;
  fc.queueCapacity = 4;
  fc.ordered = true;
  fc.run.faultInjectBitFlipSeed = 0xBADC0DEull;  // corrupt the primary path
  fc.sentinel.enabled = true;
  fc.sentinel.sampleRate = 1.0;
  fc.postmortem.dir = dir;
  PacketFarm farm(fc);

  constexpr int kPackets = 3;
  for (int i = 0; i < kPackets; ++i) {
    RxJob job;
    job.id = static_cast<u64>(i);
    job.rx = makePacket(cfg, i).first;
    if (i == 1) job.maxCycles = 1000;  // stops long before any payload bit
    farm.submit(std::move(job));
  }
  const std::vector<RxOutcome> outs = farm.finish();
  ASSERT_EQ(outs.size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(outs[1].result.stop, StopReason::kMaxCycles);

  const std::vector<obs::IntegrityEvent> events = farm.integrityEvents();
  ASSERT_EQ(events.size(), 2u) << "the two fault-seeded full decodes";
  for (const obs::IntegrityEvent& ev : events) {
    EXPECT_NE(ev.jobId, 1u) << "the capped decode stops alike on both tiers";
    EXPECT_TRUE(ev.bundlePath.empty()) << ev.bundlePath;
  }
  EXPECT_EQ(farm.postmortemWriter(), nullptr);
  EXPECT_EQ(farm.capturePostmortem("slo_breach", "capture off"), "");
  EXPECT_FALSE(fs::exists(dir)) << "no store directory with capture off";
}

TEST(SentinelFarm, BudgetCappedCleanDecodeIsNotADivergence) {
  // A per-job budget (RxJob::maxCycles, set on every cell job) stops the
  // primary decode early; the shadow decodes under the same budget, so a
  // clean packet stopped at max_cycles is no divergence.
  const dsp::ModemConfig cfg = smallConfig();
  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 1;
  fc.sentinel.enabled = true;
  fc.sentinel.sampleRate = 1.0;
  PacketFarm farm(fc);

  RxJob job;
  job.rx = makePacket(cfg, 0).first;
  job.maxCycles = 20000;
  farm.submit(std::move(job));
  const std::vector<RxOutcome> outs = farm.finish();

  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].result.stop, StopReason::kMaxCycles);
  ASSERT_NE(farm.sentinel(), nullptr);
  EXPECT_EQ(farm.sentinel()->sampled(), 1u);
  EXPECT_EQ(farm.divergences(), 0u);
  EXPECT_TRUE(farm.integrityEvents().empty());
}

TEST(SentinelFarm, BudgetCappedDecodeBundlesReplayConsistently) {
  // With capture on, the budget stop writes a watchdog bundle, and an SLO
  // capture freezes the same (slowest) packet: both record the per-job
  // budget, so a standalone replay stops where the farm's decode did.
  const dsp::ModemConfig cfg = smallConfig();
  const std::string dir = freshDir("adres_sentinel_budget");

  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 1;
  fc.sentinel.enabled = true;
  fc.sentinel.sampleRate = 1.0;
  fc.postmortem.enabled = true;
  fc.postmortem.dir = dir;
  PacketFarm farm(fc);

  RxJob job;
  job.rx = makePacket(cfg, 0).first;
  job.maxCycles = 20000;
  farm.submit(std::move(job));
  (void)farm.finish();
  EXPECT_EQ(farm.divergences(), 0u);

  ASSERT_NE(farm.postmortemWriter(), nullptr);
  const std::vector<std::string> paths = farm.postmortemWriter()->paths();
  ASSERT_EQ(paths.size(), 1u) << "one watchdog bundle, no divergence bundle";
  const std::string slo = farm.capturePostmortem("slo_breach", "budget");
  ASSERT_FALSE(slo.empty());
  for (const std::string& path : {paths[0], slo}) {
    const obs::PostmortemBundle b = obs::loadPostmortemBundle(path);
    EXPECT_EQ(b.maxCycles, 20000u) << b.trigger;
    EXPECT_EQ(b.primary.stop, "max_cycles") << b.trigger;
    const ReplayReport rep = replayPostmortem(b);
    EXPECT_TRUE(rep.matchesPrimary) << b.trigger;
    EXPECT_TRUE(rep.consistent) << b.trigger << ": " << rep.verdict;
  }
}

TEST(SentinelFarm, SloBreachCaptureFreezesTheSlowestPacket) {
  const dsp::ModemConfig cfg = smallConfig();
  const std::string dir = freshDir("adres_sentinel_capture");

  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 1;
  fc.ordered = true;
  fc.postmortem.enabled = true;
  fc.postmortem.dir = dir;
  PacketFarm farm(fc);

  // Nothing decoded yet: capture declines rather than writing a hollow file.
  EXPECT_EQ(farm.capturePostmortem("slo_breach", "premature"), "");

  for (int i = 0; i < 2; ++i) (void)farm.submit(makePacket(cfg, i).first);
  (void)farm.finish();

  const std::string path =
      farm.capturePostmortem("slo_breach", "p99 over budget");
  ASSERT_FALSE(path.empty());
  ASSERT_TRUE(fs::exists(path));
  const obs::PostmortemBundle b = obs::loadPostmortemBundle(path);
  EXPECT_EQ(b.trigger, "slo_breach");
  EXPECT_EQ(b.reason, "p99 over budget");
  EXPECT_FALSE(b.shadow.has_value()) << "an SLO capture has no shadow decode";
  ASSERT_FALSE(b.rx[0].empty());
  // No-shadow bundles must re-decode to the recorded primary exactly.
  const ReplayReport rep = replayPostmortem(b);
  EXPECT_TRUE(rep.matchesPrimary);
  EXPECT_TRUE(rep.consistent) << rep.verdict;
}

TEST(SentinelFarm, BecomesReadyOnceWorkersWarm) {
  FarmConfig fc;
  fc.modem = smallConfig();
  fc.numWorkers = 2;
  PacketFarm farm(fc);
  bool ready = false;
  for (int i = 0; i < 2000 && !ready; ++i) {
    ready = farm.ready();
    if (!ready) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(ready) << "workers must finish warming their sessions";
  std::string reason;
  EXPECT_TRUE(farm.ready(&reason));
  (void)farm.finish();
}

TEST(SentinelFarm, ExportsSentinelSeriesOnTheRegistry) {
  const dsp::ModemConfig cfg = smallConfig();
  FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 1;
  fc.sentinel.enabled = true;
  fc.sentinel.sampleRate = 1.0;
  PacketFarm farm(fc);
  obs::MetricsRegistry reg;
  farm.registerMetrics(reg);

  (void)farm.submit(makePacket(cfg, 0).first);
  (void)farm.finish();

  const obs::MetricsSnapshot snap = reg.snapshot();
  double sampled = -1, diverged = -1, readyGauge = -1;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name == "adres_farm_sentinel_sampled_total") sampled = s.value;
    if (s.name == "adres_farm_divergences_total") diverged = s.value;
    if (s.name == "adres_farm_ready") readyGauge = s.value;
  }
  reg.clear();
  EXPECT_EQ(sampled, 1.0);
  EXPECT_EQ(diverged, 0.0);
  EXPECT_EQ(readyGauge, 1.0);
}

}  // namespace
}  // namespace adres::platform
