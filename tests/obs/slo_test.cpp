// SLO spec grammar (parse / render round-trip), SloEngine evaluation
// against a live MetricsRegistry (burn rate, for-count de-flapping, breach
// hook) and the exported adres_slo_* series.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "obs/histogram.hpp"
#include "obs/slo.hpp"

namespace adres::obs {
namespace {

TEST(SloGrammar, ParsesEveryMetricAndRoundTrips) {
  const SloSpec p99 = parseSloSpec("p99: p99_latency_us < 50000");
  EXPECT_EQ(p99.name, "p99");
  EXPECT_EQ(p99.kind, SloKind::kP99LatencyUs);
  EXPECT_DOUBLE_EQ(p99.threshold, 50000);
  EXPECT_TRUE(p99.strict);
  EXPECT_EQ(p99.forCount, 1);

  const SloSpec miss =
      parseSloSpec("miss: deadline_miss_rate(20000) <= 0.01 for 3");
  EXPECT_EQ(miss.kind, SloKind::kDeadlineMissRate);
  EXPECT_DOUBLE_EQ(miss.deadlineUs, 20000);
  EXPECT_DOUBLE_EQ(miss.threshold, 0.01);
  EXPECT_FALSE(miss.strict);
  EXPECT_EQ(miss.forCount, 3);

  const SloSpec share = parseSloSpec("wait: queue_wait_share <= 0.5");
  EXPECT_EQ(share.kind, SloKind::kQueueWaitShare);
  const SloSpec wd = parseSloSpec("wd: watchdog_events < 1");
  EXPECT_EQ(wd.kind, SloKind::kWatchdogEvents);
  const SloSpec div = parseSloSpec("integrity: divergences < 1 for 2");
  EXPECT_EQ(div.kind, SloKind::kDivergences);

  // Canonical rendering re-parses to the same spec.
  for (const SloSpec& s : {p99, miss, share, wd, div}) {
    const SloSpec back = parseSloSpec(sloSpecToString(s));
    EXPECT_EQ(back.name, s.name);
    EXPECT_EQ(back.kind, s.kind);
    EXPECT_DOUBLE_EQ(back.threshold, s.threshold);
    EXPECT_EQ(back.strict, s.strict);
    EXPECT_DOUBLE_EQ(back.deadlineUs, s.deadlineUs);
    EXPECT_EQ(back.forCount, s.forCount);
  }
}

TEST(SloGrammar, ListSplitsOnSemicolons) {
  const std::vector<SloSpec> specs = parseSloSpecList(
      "p99: p99_latency_us < 50000; integrity: divergences < 1;");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "p99");
  EXPECT_EQ(specs[1].name, "integrity");
}

TEST(SloGrammar, RejectsMalformedSpecs) {
  EXPECT_THROW(parseSloSpec("x: not_a_metric < 1"), SimError);
  EXPECT_THROW(parseSloSpec("p99_latency_us < 1"), SimError);  // no name
  EXPECT_THROW(parseSloSpec("x: p99_latency_us"), SimError);   // no threshold
  EXPECT_THROW(parseSloSpec("x: p99_latency_us > 1"), SimError);
  EXPECT_THROW(parseSloSpec("x: p99_latency_us < 1 for 0"), SimError);
  EXPECT_THROW(parseSloSpec("x: deadline_miss_rate < 0.1"), SimError)
      << "deadline_miss_rate needs its (deadline_us) argument";
  // Numbers follow the whole-token rule: a token that does not parse whole
  // or is out of range is a SimError, never a prefix or a cast.
  EXPECT_THROW(parseSloSpec("p99: p99_latency_us < -"), SimError);
  EXPECT_THROW(parseSloSpec("p99: p99_latency_us < 1e999"), SimError);
  EXPECT_THROW(parseSloSpec("p99: p99_latency_us < 1-2"), SimError);
  EXPECT_THROW(parseSloSpec("p99: p99_latency_us < 1 for 2.5"), SimError);
  EXPECT_THROW(parseSloSpec("p99: p99_latency_us < 1 for 1e30"), SimError);
  EXPECT_THROW(parseSloSpec("x: deadline_miss_rate(4-0) < 0.1"), SimError);
}

/// Registry wired to mutable sources mimicking the farm's series.
struct FakeFarm {
  LogLinearHistogram latencyNs;    // adres_farm_latency_host_us (scale 1e-3)
  LogLinearHistogram queueWaitNs;  // adres_farm_queue_wait_us (scale 1e-3)
  std::atomic<u64> healthEvents{0};
  std::atomic<u64> divergences{0};
  MetricsRegistry reg;

  FakeFarm() {
    reg.addSummary("adres_farm_latency_host_us", "t", 1e-3,
                   [this] { return latencyNs.snapshot(); });
    reg.addSummary("adres_farm_queue_wait_us", "t", 1e-3,
                   [this] { return queueWaitNs.snapshot(); });
    reg.addCounter("adres_farm_health_events_total", "t", [this] {
      return static_cast<double>(healthEvents.load());
    });
    reg.addCounter("adres_farm_divergences_total", "t", [this] {
      return static_cast<double>(divergences.load());
    });
  }
  ~FakeFarm() { reg.clear(); }
};

TEST(SloEngine, EvaluatesLatencyShareAndMissRate) {
  FakeFarm farm;
  for (int i = 0; i < 99; ++i) farm.latencyNs.record(1'000'000);  // 1 ms
  farm.latencyNs.record(100'000'000);                             // 100 ms tail
  for (int i = 0; i < 100; ++i) farm.queueWaitNs.record(1'000'000);

  SloEngine engine(farm.reg,
                   parseSloSpecList("p99: p99_latency_us < 1000000; "
                                    "wait: queue_wait_share <= 0.9; "
                                    "miss: deadline_miss_rate(10000) <= 0.05"));
  const std::vector<SloStatus> st = engine.evaluate();
  ASSERT_EQ(st.size(), 3u);

  EXPECT_TRUE(st[0].haveValue);
  EXPECT_GT(st[0].value, 900.0) << "p99 should land near the 100 ms tail-free "
                                   "bulk or above (us scale)";
  EXPECT_FALSE(st[0].fired);
  EXPECT_NEAR(st[0].burnRate, st[0].value / 1000000.0, 1e-9);

  // Wait sum 100 ms vs latency sum 199 ms -> share = 100/299.
  EXPECT_TRUE(st[1].haveValue);
  EXPECT_NEAR(st[1].value, 100.0 / 299.0, 0.05);
  EXPECT_FALSE(st[1].fired);

  // 1/100 packets above the 10 ms deadline (bucketized: allow slack).
  EXPECT_TRUE(st[2].haveValue);
  EXPECT_NEAR(st[2].value, 0.01, 0.005);
  EXPECT_FALSE(st[2].fired);
}

TEST(SloEngine, DeadlineMissRatePrefersTheCellSummaryWhenPopulated) {
  // Farm host latencies all fast (no host-side "misses")...
  FakeFarm farm;
  for (int i = 0; i < 100; ++i) farm.latencyNs.record(1'000'000);  // 1 ms
  // ...while the cell layer's SIMULATED latencies blow the 10 ms frame
  // budget half the time.  deadline_miss_rate is a simulated-time contract:
  // once the cell summary has samples it must win over the farm series.
  LogLinearHistogram cellLatencyNs;
  farm.reg.addSummary("adres_cell_latency_us", "t", 1e-3,
                      [&] { return cellLatencyNs.snapshot(); });

  SloEngine engine(farm.reg,
                   parseSloSpecList("miss: deadline_miss_rate(10000) <= 0.05"));
  // Empty cell summary: falls back to the farm host-latency series.
  std::vector<SloStatus> st = engine.evaluate();
  EXPECT_TRUE(st[0].haveValue);
  EXPECT_NEAR(st[0].value, 0.0, 1e-9);

  for (int i = 0; i < 50; ++i) cellLatencyNs.record(1'000'000);    // 1 ms
  for (int i = 0; i < 50; ++i) cellLatencyNs.record(100'000'000);  // 100 ms
  st = engine.evaluate();
  EXPECT_TRUE(st[0].haveValue);
  EXPECT_NEAR(st[0].value, 0.5, 0.05)
      << "the populated cell summary must drive the miss rate";
}

TEST(SloEngine, ForCountDeflapsAndHookFiresOncePerOnset) {
  FakeFarm farm;
  SloEngine engine(farm.reg,
                   parseSloSpecList("integrity: divergences < 1 for 2"));
  int hookCalls = 0;
  engine.setBreachHook([&](const SloStatus& st) {
    ++hookCalls;
    EXPECT_EQ(st.spec.name, "integrity");
    EXPECT_TRUE(st.fired);
  });

  EXPECT_FALSE(engine.evaluate()[0].breaching);
  farm.divergences = 1;
  std::vector<SloStatus> st = engine.evaluate();
  EXPECT_TRUE(st[0].breaching);
  EXPECT_FALSE(st[0].fired) << "one breaching eval < forCount 2";
  EXPECT_EQ(hookCalls, 0);
  st = engine.evaluate();
  EXPECT_TRUE(st[0].fired);
  EXPECT_EQ(st[0].breaches, 1u);
  EXPECT_EQ(hookCalls, 1);
  st = engine.evaluate();
  EXPECT_TRUE(st[0].fired);
  EXPECT_EQ(st[0].breaches, 1u) << "sustained breach is one onset";
  EXPECT_EQ(hookCalls, 1);
  EXPECT_GE(st[0].burnRate, 1.0);

  farm.divergences = 0;
  st = engine.evaluate();
  EXPECT_FALSE(st[0].breaching);
  EXPECT_FALSE(st[0].fired);
  EXPECT_EQ(st[0].consecutive, 0);
}

TEST(SloEngine, ExportsGaugeFamiliesOnTheRegistry) {
  FakeFarm farm;
  SloEngine engine(farm.reg, parseSloSpecList("integrity: divergences < 1"));
  engine.registerMetrics(farm.reg);
  farm.divergences = 3;
  engine.evaluate();

  const MetricsSnapshot snap = farm.reg.snapshot();
  bool value = false, burn = false, breaching = false, breaches = false;
  for (const MetricSample& s : snap.samples) {
    if (s.labels != Labels{{"slo", "integrity"}}) continue;
    if (s.name == "adres_slo_value") value = s.value == 3.0;
    if (s.name == "adres_slo_burn_rate") burn = s.value == 3.0;
    if (s.name == "adres_slo_breaching") breaching = s.value == 1.0;
    if (s.name == "adres_slo_breaches_total") breaches = s.value == 1.0;
  }
  EXPECT_TRUE(value);
  EXPECT_TRUE(burn);
  EXPECT_TRUE(breaching);
  EXPECT_TRUE(breaches);
}

TEST(SloEngine, PeriodicMonitorEvaluatesOnItsOwn) {
  FakeFarm farm;
  SloEngine engine(farm.reg, parseSloSpecList("integrity: divergences < 1"));
  engine.startPeriodic(5);
  for (int i = 0; i < 200 && engine.totalEvaluations() < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine.stop();
  EXPECT_GE(engine.totalEvaluations(), 3u);
}

}  // namespace
}  // namespace adres::obs
