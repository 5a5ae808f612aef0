// WorkerWatchdog: stall detection, decode-end classification (StopReason ->
// HealthEvent), and the farm-level acceptance scenario — a deliberately
// wedged worker is reported as a structured event while it is wedged, and
// the farm completes once it recovers (no silent hang).  The unit tests
// drive the poll step on synthetic time, so they neither sleep nor depend
// on host scheduling; the farm-level test keeps the real monitor thread,
// whose interplay with the worker TSan covers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "dsp/channel.hpp"
#include "obs/watchdog.hpp"
#include "platform/packet_farm.hpp"

namespace adres::obs {

/// Runs the monitor's poll step at caller-chosen time points, with the
/// monitor thread never started.
struct WatchdogTestPeer {
  explicit WatchdogTestPeer(WorkerWatchdog& wd)
      : wd(wd), obs(static_cast<std::size_t>(wd.numWorkers())) {}
  void pollAt(std::chrono::steady_clock::time_point now) {
    wd.pollOnce(obs, now);
  }
  WorkerWatchdog& wd;
  std::vector<WorkerWatchdog::Observed> obs;
};

namespace {

using namespace std::chrono_literals;

/// Polls `n` times, one 2 ms monitor period of synthetic time apart.
void pollTimes(WatchdogTestPeer& peer,
               std::chrono::steady_clock::time_point& now, int n) {
  for (int i = 0; i < n; ++i) {
    now += 2ms;
    peer.pollAt(now);
  }
}

TEST(Watchdog, IdleWorkersAreNeverStalled) {
  WatchdogConfig cfg;
  cfg.stallTimeoutMs = 10;
  WorkerWatchdog wd(2, cfg);
  WatchdogTestPeer peer(wd);
  std::chrono::steady_clock::time_point now{};
  pollTimes(peer, now, 30);  // 60 ms: six stall timeouts
  EXPECT_EQ(wd.eventCount(), 0u);
}

TEST(Watchdog, ReportsOnlyTheStalledWorker) {
  WatchdogConfig cfg;
  cfg.stallTimeoutMs = 20;
  WorkerWatchdog wd(2, cfg);
  WatchdogTestPeer peer(wd);
  std::chrono::steady_clock::time_point now{};

  // Worker 0 goes busy and its heartbeat never advances.  The first poll
  // starts the job's progress clock; ten more reach the timeout.
  wd.health(0).beginJob(7);
  pollTimes(peer, now, 11);
  ASSERT_EQ(wd.eventCount(), 1u) << "stall must be detected within the timeout";

  const std::vector<HealthEvent> evs = wd.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, HealthEvent::Kind::kStalled);
  EXPECT_EQ(evs[0].worker, 0);
  EXPECT_EQ(evs[0].jobId, 7u);
  EXPECT_GE(evs[0].sinceMs, cfg.stallTimeoutMs);
  EXPECT_NE(evs[0].detail.find("no progress"), std::string::npos);

  // A stall is reported once, not once per poll.
  pollTimes(peer, now, 25);
  EXPECT_EQ(wd.eventCount(), 1u);
  wd.health(0).endJob();
}

TEST(Watchdog, AdvancingHeartbeatIsNotAStall) {
  WatchdogConfig cfg;
  cfg.stallTimeoutMs = 30;
  WorkerWatchdog wd(1, cfg);
  WatchdogTestPeer peer(wd);
  std::chrono::steady_clock::time_point now{};
  wd.health(0).beginJob(1);
  // Keep the heartbeat moving for 4x the stall timeout, one poll per 5 ms.
  for (int i = 0; i < 24; ++i) {
    wd.health(0).heartbeatCycles.fetch_add(1000);
    now += 5ms;
    peer.pollAt(now);
  }
  EXPECT_EQ(wd.eventCount(), 0u);
  wd.health(0).endJob();
}

TEST(Watchdog, FrozenHeartbeatStallsOncePastTheTimeout) {
  WatchdogConfig cfg;
  cfg.stallTimeoutMs = 30;
  WorkerWatchdog wd(1, cfg);
  WatchdogTestPeer peer(wd);
  std::chrono::steady_clock::time_point now{};
  wd.health(0).beginJob(2);
  wd.health(0).heartbeatCycles.store(500);
  peer.pollAt(now);  // first sighting of the job starts its progress clock
  now += 29ms;
  peer.pollAt(now);
  EXPECT_EQ(wd.eventCount(), 0u) << "still inside the stall timeout";
  now += 2ms;
  peer.pollAt(now);
  ASSERT_EQ(wd.eventCount(), 1u);
  now += 100ms;
  peer.pollAt(now);
  EXPECT_EQ(wd.eventCount(), 1u) << "a stall is reported once";
  const HealthEvent ev = wd.events()[0];
  EXPECT_EQ(ev.kind, HealthEvent::Kind::kStalled);
  EXPECT_EQ(ev.worker, 0);
  EXPECT_EQ(ev.jobId, 2u);
  EXPECT_EQ(ev.cycles, 500u);
  EXPECT_DOUBLE_EQ(ev.sinceMs, 31.0);
  wd.health(0).endJob();
}

TEST(Watchdog, NoteDecodeEndClassifiesStopReasons) {
  WatchdogConfig cfg;
  cfg.enabled = false;  // classification works without the monitor thread
  WorkerWatchdog wd(2, cfg);
  wd.noteDecodeEnd(0, 11, StopReason::kHalt, 1000);
  EXPECT_EQ(wd.eventCount(), 0u) << "clean halts are not events";
  wd.noteDecodeEnd(1, 12, StopReason::kMaxCycles, 2000);
  const std::vector<HealthEvent> evs = wd.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, HealthEvent::Kind::kBudgetExhausted);
  EXPECT_EQ(evs[0].worker, 1);
  EXPECT_EQ(evs[0].jobId, 12u);
  EXPECT_EQ(evs[0].cycles, 2000u);
  EXPECT_NE(evs[0].detail.find("max_cycles"), std::string::npos);
  EXPECT_STREQ(healthEventKindName(evs[0].kind), "budget_exhausted");
  EXPECT_STREQ(healthEventKindName(HealthEvent::Kind::kStalled), "stalled");
}

// ---------------------------------------------------------------------------
// Farm-level acceptance: a stalled worker is reported while it is stalled,
// and the farm completes instead of hanging.

TEST(FarmWatchdog, StalledWorkerIsReported) {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 2;
  Rng rng(100);
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.seed = 1;
  dsp::MimoChannel ch(cc);
  const auto rx = ch.run(pkt.waveform);

  platform::FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = 1;
  fc.watchdog.pollMs = 2;
  fc.watchdog.stallTimeoutMs = 250;
  // Wedge job 0 before its decode: spin (heartbeat frozen at 0) until the
  // real monitor thread reports the stall — what a hung simulator looks
  // like — then let the decode run.
  std::atomic<platform::PacketFarm*> farmPtr{nullptr};
  std::atomic<bool> sawStall{false};
  const auto stallOf = [](const platform::PacketFarm& farm, u64 jobId) {
    for (const HealthEvent& ev : farm.healthEvents())
      if (ev.kind == HealthEvent::Kind::kStalled && ev.jobId == jobId)
        return std::optional<HealthEvent>(ev);
    return std::optional<HealthEvent>();
  };
  fc.preDecodeHook = [&](int, const platform::RxJob& job) {
    if (job.id != 0) return;
    const platform::PacketFarm* farm = farmPtr.load();
    ASSERT_NE(farm, nullptr);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!stallOf(*farm, 0) && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    sawStall.store(stallOf(*farm, 0).has_value());
  };

  platform::PacketFarm farm(fc);
  farmPtr.store(&farm);
  (void)farm.submit(rx);  // job 0: wedges until its stall is reported
  (void)farm.submit(rx);  // job 1: decodes normally afterwards
  const std::vector<platform::RxOutcome> outs = farm.finish();

  ASSERT_EQ(outs.size(), 2u) << "the farm completed — no silent hang";
  EXPECT_TRUE(sawStall.load())
      << "the stall is reported while the worker is wedged";
  for (const platform::RxOutcome& o : outs) {
    EXPECT_TRUE(o.result.halted()) << "job " << o.id;
    EXPECT_EQ(o.result.bits, pkt.bits) << "job " << o.id;
  }
  const std::optional<HealthEvent> stall = stallOf(farm, 0);
  ASSERT_TRUE(stall.has_value());
  EXPECT_EQ(stall->worker, 0);
  EXPECT_EQ(stall->cycles, 0u) << "the heartbeat froze before the decode";
}

}  // namespace
}  // namespace adres::obs
