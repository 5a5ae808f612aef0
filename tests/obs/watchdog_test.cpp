// WorkerWatchdog: stall detection and auto-cancel, soft-budget warnings,
// decode-end classification (StopReason -> HealthEvent), and the farm-level
// acceptance scenario — a deliberately wedged worker is detected, cancelled
// and reported as a structured event while the farm still completes (no
// silent hang).  The unit tests drive the poll step on synthetic time, so
// they neither sleep nor depend on host scheduling; the farm-level test
// keeps the real monitor thread, whose interplay with the worker TSan
// covers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

TEST(Watchdog, DetectsStallAndCancelsWhenConfigured) {
  WatchdogConfig cfg;
  cfg.stallTimeoutMs = 20;
  cfg.cancelStalled = true;
  WorkerWatchdog wd(2, cfg);
  WatchdogTestPeer peer(wd);
  std::chrono::steady_clock::time_point now{};

  // Worker 0 goes busy and its heartbeat never advances.  The first poll
  // starts the job's progress clock; ten more reach the timeout.
  wd.health(0).beginJob(7);
  pollTimes(peer, now, 11);
  ASSERT_EQ(wd.eventCount(), 1u) << "stall must be detected within the timeout";
  ASSERT_NE(wd.health(0).cancel.load(), 0u)
      << "cancelStalled must set the worker's cancel flag";

  const std::vector<HealthEvent> evs = wd.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, HealthEvent::Kind::kStalled);
  EXPECT_EQ(evs[0].worker, 0);
  EXPECT_EQ(evs[0].jobId, 7u);
  EXPECT_GE(evs[0].sinceMs, cfg.stallTimeoutMs);
  EXPECT_NE(evs[0].detail.find("no progress"), std::string::npos);
  EXPECT_EQ(wd.health(1).cancel.load(), 0u) << "only the stalled worker";

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
  EXPECT_EQ(wd.health(0).cancel.load(), 0u) << "cancelStalled is off";
  wd.health(0).endJob();
}

TEST(Watchdog, SoftBudgetWarnsOncePerJob) {
  WatchdogConfig cfg;
  cfg.stallTimeoutMs = 0;  // stall detection off
  cfg.softBudgetCycles = 500;
  WorkerWatchdog wd(1, cfg);
  WatchdogTestPeer peer(wd);
  std::chrono::steady_clock::time_point now{};
  wd.health(0).beginJob(3);
  wd.health(0).heartbeatCycles.store(501);
  pollTimes(peer, now, 1);
  ASSERT_EQ(wd.eventCount(), 1u);
  wd.health(0).heartbeatCycles.store(5000);  // still the same job: no repeat
  pollTimes(peer, now, 15);
  EXPECT_EQ(wd.eventCount(), 1u);
  const std::vector<HealthEvent> evs = wd.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, HealthEvent::Kind::kOverBudget);
  EXPECT_EQ(evs[0].jobId, 3u);
  EXPECT_GT(evs[0].cycles, cfg.softBudgetCycles);
  wd.health(0).endJob();
}

TEST(Watchdog, NoteDecodeEndClassifiesStopReasons) {
  WatchdogConfig cfg;
  cfg.enabled = false;  // classification works without the monitor thread
  WorkerWatchdog wd(2, cfg);
  wd.noteDecodeEnd(0, 11, StopReason::kHalt, 1000);
  EXPECT_EQ(wd.eventCount(), 0u) << "clean halts are not events";
  wd.noteDecodeEnd(0, 12, StopReason::kMaxCycles, 2000);
  wd.noteDecodeEnd(1, 13, StopReason::kCancelled, 300);
  const std::vector<HealthEvent> evs = wd.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, HealthEvent::Kind::kBudgetExhausted);
  EXPECT_EQ(evs[0].jobId, 12u);
  EXPECT_NE(evs[0].detail.find("max_cycles"), std::string::npos);
  EXPECT_EQ(evs[1].kind, HealthEvent::Kind::kCancelled);
  EXPECT_EQ(evs[1].worker, 1);
  EXPECT_NE(evs[1].detail.find("cancelled"), std::string::npos);
  EXPECT_STREQ(healthEventKindName(evs[0].kind), "budget_exhausted");
  EXPECT_STREQ(healthEventKindName(evs[1].kind), "cancelled");
}

// ---------------------------------------------------------------------------
// Farm-level acceptance: a stalled worker is reported and un-wedged, the
// farm completes instead of hanging.

TEST(FarmWatchdog, StalledWorkerIsCancelledAndReportedNotHung) {
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
  // Frequent heartbeats + a generous timeout: a real decode must never look
  // stalled even on a slow (sanitizer) host, while the wedged job below has
  // its heartbeat frozen at 0 and trips the timeout regardless.
  fc.run.progressIntervalCycles = 1024;
  fc.watchdog.stallTimeoutMs = 250;
  fc.watchdog.cancelStalled = true;
  // Wedge job 0 before its decode: spin (heartbeat frozen at 0) until the
  // watchdog cancels us — exactly what a hung simulator would look like,
  // but recoverable so the test can assert on the outcome.
  std::atomic<platform::PacketFarm*> farmPtr{nullptr};
  std::atomic<bool> sawCancel{false};
  fc.preDecodeHook = [&](int worker, const platform::RxJob& job) {
    if (job.id != 0) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    platform::PacketFarm* farm;
    while ((farm = farmPtr.load()) == nullptr &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    ASSERT_NE(farm, nullptr);
    while (farm->watchdog().health(worker).cancel.load() == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    sawCancel.store(farm->watchdog().health(worker).cancel.load() != 0);
  };

  platform::PacketFarm farm(fc);
  farmPtr.store(&farm);
  (void)farm.submit(rx);  // job 0: wedges, gets cancelled
  (void)farm.submit(rx);  // job 1: decodes normally afterwards
  const std::vector<platform::RxOutcome> outs = farm.finish();

  ASSERT_EQ(outs.size(), 2u) << "the farm completed — no silent hang";
  EXPECT_TRUE(sawCancel.load()) << "watchdog cancelled the wedged worker";
  EXPECT_EQ(outs[0].result.stop, StopReason::kCancelled)
      << "the wedged decode surfaces a structured outcome";
  EXPECT_TRUE(outs[1].result.halted()) << "the next packet decodes cleanly";
  EXPECT_EQ(outs[1].result.bits, pkt.bits);

  bool stalled = false, cancelled = false;
  for (const HealthEvent& ev : farm.healthEvents()) {
    if (ev.kind == HealthEvent::Kind::kStalled && ev.jobId == 0) stalled = true;
    if (ev.kind == HealthEvent::Kind::kCancelled && ev.jobId == 0)
      cancelled = true;
  }
  EXPECT_TRUE(stalled) << "stall reported as a structured health event";
  EXPECT_TRUE(cancelled) << "cancelled decode classified by noteDecodeEnd";
}

}  // namespace
}  // namespace adres::obs
