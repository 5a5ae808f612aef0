// CellScheduler end-to-end: host-worker-count independence (byte-identical
// adres.cell.v1 summaries), the miss-accounting identities, all three
// deadline-miss classes (late / expired / overrun via the per-job cycle
// budget), and the metrics + SLO integration.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cell/scheduler.hpp"
#include "common/json_min.hpp"
#include "obs/slo.hpp"
#include "platform/packet_farm.hpp"

namespace adres::cell {
namespace {

CellScenario baseScenario() {
  CellScenario sc;
  sc.seed = 42;
  sc.modem.mod = dsp::Modulation::kQam16;
  sc.modem.numSymbols = 2;
  sc.numServers = 2;
  sc.durationUs = 15'000.0;
  sc.classes[0].users = 3;
  sc.classes[0].packetsPerSec = 300.0;
  sc.classes[0].deadlineUs = 20'000.0;  // generous: nothing misses
  return sc;
}

platform::FarmConfig farmFor(const CellScenario& sc, int workers) {
  platform::FarmConfig fc;
  fc.modem = sc.modem;
  fc.numWorkers = workers;
  fc.queueCapacity = 8;
  fc.ordered = true;
  return fc;
}

/// Runs `sc` on a fresh farm with `workers` host threads; returns the
/// adres.cell.v1 summary bytes (and the totals via `out` when non-null).
std::string runScenario(const CellScenario& sc, int workers,
                        CellTotals* out = nullptr,
                        std::string* checkWhy = nullptr) {
  platform::PacketFarm farm(farmFor(sc, workers));
  CellScheduler sched(sc);
  const CellTotals totals = sched.run(farm);
  (void)farm.finish();
  EXPECT_TRUE(sched.selfCheck(checkWhy)) << (checkWhy ? *checkWhy : "");
  if (out != nullptr) *out = totals;
  std::ostringstream os;
  sched.writeSummary(os);
  return os.str();
}

TEST(CellScheduler, SummaryIsByteIdenticalAcrossHostWorkerCounts) {
  const CellScenario sc = baseScenario();
  CellTotals totals;
  const std::string oneWorker = runScenario(sc, 1, &totals);
  const std::string threeWorkers = runScenario(sc, 3);
  const std::string rerun = runScenario(sc, 1);
  ASSERT_GT(totals.offered, 0u);
  EXPECT_EQ(oneWorker, threeWorkers)
      << "host threads must not leak into simulated results";
  EXPECT_EQ(oneWorker, rerun) << "same seed, same bytes";

  // The summary is parsable adres.cell.v1 and internally consistent.
  json::JsonParser parser(oneWorker);
  const json::JsonValue root = parser.parse();
  EXPECT_EQ(root.at("schema").str, "adres.cell.v1");
  EXPECT_EQ(static_cast<u64>(root.at("offered").number), totals.offered);
  EXPECT_EQ(root.at("perFlow").array.size(), 3u);
}

TEST(CellScheduler, DifferentSeedMovesTheSummary) {
  CellScenario sc = baseScenario();
  const std::string a = runScenario(sc, 1);
  sc.seed += 1;
  const std::string b = runScenario(sc, 1);
  EXPECT_NE(a, b);
}

TEST(CellScheduler, GenerousDeadlineDeliversEverythingOnTime) {
  const CellScenario sc = baseScenario();
  CellTotals totals;
  (void)runScenario(sc, 2, &totals);
  EXPECT_GT(totals.offered, 0u);
  EXPECT_EQ(totals.missed(), 0u);
  EXPECT_EQ(totals.offered, totals.delivered + totals.errors);
  EXPECT_DOUBLE_EQ(totals.missRate(), 0.0);
}

TEST(CellScheduler, TightBudgetOverrunsEveryDecodeViaMaxCycles) {
  // Deadline far below one decode's service time (~142 us for QAM16 x 2):
  // the per-job cycle budget fires inside every served decode, so every
  // packet is a miss through the kMaxCycles/watchdog path — none are
  // delivered however light the load is.
  CellScenario sc = baseScenario();
  sc.classes[0].deadlineUs = 100.0;
  CellTotals totals;
  (void)runScenario(sc, 2, &totals);
  EXPECT_GT(totals.offered, 0u);
  EXPECT_EQ(totals.delivered, 0u);
  EXPECT_EQ(totals.errors, 0u);
  EXPECT_GT(totals.missedOverrun, 0u);
  EXPECT_EQ(totals.missed(), totals.offered);
}

TEST(CellScheduler, OverloadExpiresPacketsUnserved) {
  // 2 users x 10k pkt/s against one ~7k pkt/s server: the backlog outgrows
  // the frame budget and admission control starts dropping unserved.
  CellScenario sc = baseScenario();
  sc.numServers = 1;
  sc.durationUs = 20'000.0;
  sc.classes[0].users = 2;
  sc.classes[0].packetsPerSec = 10'000.0;
  sc.classes[0].deadlineUs = 4'000.0;
  CellTotals totals;
  (void)runScenario(sc, 2, &totals);
  EXPECT_GT(totals.offered, 100u);
  EXPECT_GT(totals.missedExpired, 0u);
  EXPECT_GT(totals.missRate(), 0.3);
}

TEST(CellScheduler, PerJobMaxCyclesStopsTheDecodeAtTheBudget) {
  // The farm-level contract the overrun path rests on: RxJob::maxCycles
  // caps that one decode, independent of the farm default.
  const CellScenario sc = baseScenario();
  platform::PacketFarm farm(farmFor(sc, 1));
  Rng rng(packetSeed(sc, 0, 0, kTxStream));
  const dsp::TxPacket pkt = dsp::transmit(sc.modem, rng);
  dsp::ChannelConfig cc;
  cc.taps = 1;
  cc.snrDb = 40;
  cc.seed = 9;
  dsp::MimoChannel chan(cc);

  platform::RxJob capped;
  capped.id = 0;
  capped.rx = chan.run(pkt.waveform);
  capped.maxCycles = 1000;  // far below a full decode
  farm.submit(std::move(capped));
  platform::RxJob uncapped;
  uncapped.id = 1;
  uncapped.rx = chan.run(pkt.waveform);
  farm.submit(std::move(uncapped));
  const std::vector<platform::RxOutcome> outs = farm.finish();
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0].result.stop, StopReason::kMaxCycles);
  EXPECT_FALSE(outs[0].result.halted());
  // The stop lands on a step boundary: at the budget, within one step.
  EXPECT_GE(outs[0].result.cycles, 1000u);
  EXPECT_LT(outs[0].result.cycles, 1200u);
  EXPECT_EQ(outs[1].result.stop, StopReason::kHalt);
  EXPECT_EQ(outs[1].result.bits, pkt.bits);
}

TEST(CellScheduler, MetricsAndSloSeeTheSimulatedLatencies) {
  const CellScenario sc = baseScenario();
  platform::PacketFarm farm(farmFor(sc, 2));
  CellScheduler sched(sc);
  const CellTotals totals = sched.run(farm);
  (void)farm.finish();

  obs::MetricsRegistry reg;
  sched.registerMetrics(reg);
  const obs::MetricsSnapshot snap = reg.snapshot();

  const obs::SummarySample* lat = nullptr;
  for (const obs::SummarySample& s : snap.summaries)
    if (s.name == "adres_cell_latency_us") lat = &s;
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count, totals.offered)
      << "every offered packet records exactly one latency sample";

  double missRate = -1, offeredFlows = 0;
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name == "adres_cell_deadline_miss_rate") missRate = s.value;
    if (s.name == "adres_cell_flow_offered") offeredFlows += s.value;
  }
  EXPECT_DOUBLE_EQ(missRate, totals.missRate());
  EXPECT_DOUBLE_EQ(offeredFlows, static_cast<double>(totals.offered));

  // The SLO engine's deadline_miss_rate(us) reads the cell summary: with
  // the generous budget every sample sits far below the deadline.
  obs::SloEngine engine(
      reg, obs::parseSloSpecList("miss: deadline_miss_rate(20000) <= 0.5"));
  const std::vector<obs::SloStatus> st = engine.evaluate();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_TRUE(st[0].haveValue);
  EXPECT_DOUBLE_EQ(st[0].value, 0.0);
  EXPECT_FALSE(st[0].fired);
  reg.clear();
}

TEST(CellScheduler, LongLivedFarmKeepsSampleBufferPoolBounded) {
  // Every waveform the scheduler submits comes from the farm's pool and
  // the worker releases it back after the decode, so a farm reused across
  // runs holds at most the buffers of one batch in flight (two antennas
  // per job), however many packets it has decoded.
  CellScenario sc = baseScenario();
  sc.submitBatch = 4;
  const std::size_t bound = 2 * static_cast<std::size_t>(sc.submitBatch);
  platform::PacketFarm farm(farmFor(sc, 2));
  u64 offered = 0;
  for (int round = 0; round < 4; ++round) {
    sc.seed = 42 + static_cast<u64>(round);
    CellScheduler sched(sc);
    offered += sched.run(farm).offered;
    EXPECT_LE(farm.idleSampleBuffers(), bound) << "round " << round;
  }
  (void)farm.finish();
  EXPECT_GT(offered, bound) << "too few packets to tell a leak from the bound";
}

TEST(CellScheduler, WriteSummaryFileIsAtomicAndIdenticalToStream) {
  const CellScenario sc = baseScenario();
  platform::PacketFarm farm(farmFor(sc, 1));
  CellScheduler sched(sc);
  (void)sched.run(farm);
  (void)farm.finish();

  std::ostringstream os;
  sched.writeSummary(os);
  const std::string path =
      testing::TempDir() + "/adres_cell_summary_test.json";
  sched.writeSummaryFile(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream fileBytes;
  fileBytes << in.rdbuf();
  EXPECT_EQ(fileBytes.str(), os.str());
  std::remove(path.c_str());
}

TEST(CellScheduler, FailedSummaryWriteThrowsNamingThePathAndLeavesNoTmp) {
  const CellScheduler sched(baseScenario());
  // A directory squatting on the summary name: the tmp file is written,
  // then the rename onto the directory fails.
  const std::string path =
      testing::TempDir() + "/adres_cell_summary_squatted.json";
  std::filesystem::remove_all(path);
  std::filesystem::remove(path + ".tmp");
  std::filesystem::create_directory(path);
  try {
    sched.writeSummaryFile(path);
    ADD_FAILURE() << "a failed rename must throw";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "the half-committed tmp file is removed";
  std::filesystem::remove_all(path);
}

}  // namespace
}  // namespace adres::cell
