// DivergenceSentinel: deterministic sampling math, decode comparison across
// every audited dimension, event bookkeeping and the bundle hook.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/integrity.hpp"

namespace adres::obs {
namespace {

DecodeSummary summary(u64 cycles = 1000, std::size_t bits = 64) {
  DecodeSummary s;
  s.detected = true;
  s.ltfStart = 160;
  s.stop = "halt";
  s.cycles = cycles;
  s.totalOps = 5000;
  s.bits.assign(bits, 0);
  for (std::size_t i = 0; i < bits; i += 3) s.bits[i] = 1;
  RegionProfile rp;
  rp.cycles = cycles;
  rp.ops = 5000;
  s.regions[0] = rp;
  return s;
}

TEST(SentinelSampling, IsDeterministicAndSeedKeyed) {
  SentinelConfig cfg;
  cfg.enabled = true;
  cfg.sampleRate = 0.5;
  DivergenceSentinel a(cfg, ExecTier::kNative, {});
  DivergenceSentinel b(cfg, ExecTier::kNative, {});
  std::vector<u64> sampled;
  for (u64 id = 1; id <= 2000; ++id) {
    EXPECT_EQ(a.shouldSample(id), b.shouldSample(id))
        << "same id must decide identically";
    if (a.shouldSample(id)) sampled.push_back(id);
  }
  // Hash uniformity: ~50% +- a loose margin.
  EXPECT_GT(sampled.size(), 800u);
  EXPECT_LT(sampled.size(), 1200u);
  // The fixed sampling seed pins the audited subset: a different seed would
  // audit different packets than every earlier run did.
  EXPECT_EQ(sampled.size(), 989u);
  ASSERT_GE(sampled.size(), 10u);
  EXPECT_EQ(std::vector<u64>(sampled.begin(), sampled.begin() + 10),
            (std::vector<u64>{1, 7, 8, 12, 13, 14, 15, 16, 21, 22}));
}

TEST(SentinelSampling, RateEdgesAreExact) {
  SentinelConfig all;
  all.enabled = true;
  all.sampleRate = 1.0;
  DivergenceSentinel everything(all, ExecTier::kNative, {});
  SentinelConfig none;
  none.enabled = true;
  none.sampleRate = 0.0;
  DivergenceSentinel nothing(none, ExecTier::kNative, {});
  SentinelConfig off;  // disabled sentinel never samples, whatever the rate
  off.sampleRate = 1.0;
  DivergenceSentinel disabled(off, ExecTier::kNative, {});
  for (u64 id = 1; id <= 500; ++id) {
    EXPECT_TRUE(everything.shouldSample(id));
    EXPECT_FALSE(nothing.shouldSample(id));
    EXPECT_FALSE(disabled.shouldSample(id));
  }
}

TEST(SentinelSampling, RateScalesTheSampledFraction) {
  SentinelConfig cfg;
  cfg.enabled = true;
  cfg.sampleRate = 0.01;
  DivergenceSentinel s(cfg, ExecTier::kNative, {});
  int sampled = 0;
  for (u64 id = 1; id <= 100000; ++id)
    if (s.shouldSample(id)) ++sampled;
  EXPECT_GT(sampled, 500);
  EXPECT_LT(sampled, 2000) << "1% sampling should audit ~1000/100k packets";
}

TEST(CompareDecodes, IdenticalSummariesMatch) {
  EXPECT_FALSE(compareDecodes(summary(), summary()).has_value());
}

TEST(CompareDecodes, FlagsEachDimensionWithBitPriority) {
  const DecodeSummary base = summary();

  DecodeSummary flipped = base;
  flipped.bits[7] ^= 1;
  auto ev = compareDecodes(base, flipped);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, IntegrityEvent::Kind::kBits);
  EXPECT_TRUE(ev->bitsDiverged);
  EXPECT_EQ(ev->bitErrors, 1u);

  DecodeSummary meta = base;
  meta.ltfStart += 16;
  ev = compareDecodes(base, meta);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, IntegrityEvent::Kind::kResult);
  EXPECT_FALSE(ev->bitsDiverged);

  DecodeSummary slower = base;
  slower.cycles += 100;
  slower.regions[0].cycles += 100;  // keep the partition sizes equal
  ev = compareDecodes(base, slower);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, IntegrityEvent::Kind::kCycles);
  EXPECT_EQ(ev->primaryCycles, base.cycles);
  EXPECT_EQ(ev->shadowCycles, slower.cycles);

  DecodeSummary ops = base;
  ops.totalOps += 1;
  ev = compareDecodes(base, ops);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, IntegrityEvent::Kind::kCounters);
  EXPECT_TRUE(ev->countersDiverged);

  // Bits dominate when several dimensions diverge at once.
  DecodeSummary everything = base;
  everything.bits[0] ^= 1;
  everything.cycles += 5;
  everything.totalOps += 5;
  ev = compareDecodes(base, everything);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, IntegrityEvent::Kind::kBits);
  EXPECT_TRUE(ev->cyclesDiverged);
}

TEST(CompareDecodes, RegionPartitionMismatchIsACounterDivergence) {
  const DecodeSummary base = summary();
  DecodeSummary skewed = base;
  skewed.regions[0].vliwOps += 3;  // same totals, different partition
  const auto ev = compareDecodes(base, skewed);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, IntegrityEvent::Kind::kCounters);
}

TEST(Sentinel, AuditRecordsDivergencesAndCallsHooks) {
  SentinelConfig cfg;
  cfg.enabled = true;
  cfg.sampleRate = 1.0;
  // Shadow decoder: always returns the clean summary, and records the budget
  // it was asked to decode under.
  std::vector<u64> shadowBudgets;
  DivergenceSentinel sentinel(cfg, ExecTier::kNative,
                              [&](const DecodedPacket& p) {
                                shadowBudgets.push_back(p.maxCycles);
                                return summary();
                              });
  int bundleCalls = 0;
  sentinel.setBundleFn([&](const IntegrityEvent&, const DecodedPacket& p,
                           const DecodeSummary& shadow) {
    ++bundleCalls;
    EXPECT_NE(p.primary.bits, shadow.bits);
    EXPECT_EQ(p.jobId, 7u) << "the audited packet";
    EXPECT_EQ(shadow.bits, summary().bits) << "the audit's own shadow";
    return std::string("bundles/b0.json");
  });

  const std::array<std::vector<cint16>, 2> rx{};  // stub decoder ignores it
  // Matching primary: no event.
  const DecodeSummary clean = summary();
  EXPECT_FALSE(sentinel.audit({1, 0, 0, 11, 20000, rx, clean}).has_value());
  EXPECT_EQ(sentinel.sampled(), 1u);
  EXPECT_EQ(sentinel.divergences(), 0u);
  EXPECT_EQ(bundleCalls, 0);

  // Corrupted primary: event with identity fields + bundle.
  DecodeSummary bad = summary();
  bad.bits[3] ^= 1;
  const auto ev = sentinel.audit({7, 42, 2, 1234, 30000, rx, bad});
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->jobId, 7u);
  EXPECT_EQ(ev->tag, 42u);
  EXPECT_EQ(ev->worker, 2);
  EXPECT_EQ(ev->traceId, 1234u);
  EXPECT_EQ(ev->shadowTier, "reference");
  EXPECT_EQ(ev->bundlePath, "bundles/b0.json");
  EXPECT_EQ(sentinel.sampled(), 2u);
  EXPECT_EQ(sentinel.divergences(), 1u);
  EXPECT_EQ(bundleCalls, 1);
  // One shadow decode per audit, divergent or not, each under its packet's
  // budget: the bundle takes the audit's own shadow summary.
  EXPECT_EQ(shadowBudgets, (std::vector<u64>{20000, 30000}));
  // events() records each divergence as audit() returned it.
  const std::vector<IntegrityEvent> events = sentinel.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, IntegrityEvent::Kind::kBits);
  EXPECT_EQ(events[0].jobId, 7u);
  EXPECT_EQ(events[0].bundlePath, "bundles/b0.json");
}

// The shadow is derived, never configured: a same-tier shadow would audit
// nothing independent.
TEST(Sentinel, ShadowRunsOnTheOtherTier) {
  EXPECT_EQ(shadowTierFor(ExecTier::kNative), ExecTier::kReference);
  EXPECT_EQ(shadowTierFor(ExecTier::kReference), ExecTier::kNative);
  const SentinelConfig cfg;
  EXPECT_EQ(DivergenceSentinel(cfg, ExecTier::kNative, {}).shadowTier(),
            ExecTier::kReference);
  EXPECT_EQ(DivergenceSentinel(cfg, ExecTier::kReference, {}).shadowTier(),
            ExecTier::kNative);
}

TEST(Sentinel, EventKindNamesAreStable) {
  EXPECT_STREQ(integrityEventKindName(IntegrityEvent::Kind::kBits), "bits");
  EXPECT_STREQ(integrityEventKindName(IntegrityEvent::Kind::kResult),
               "result");
  EXPECT_STREQ(integrityEventKindName(IntegrityEvent::Kind::kCycles),
               "cycles");
  EXPECT_STREQ(integrityEventKindName(IntegrityEvent::Kind::kCounters),
               "counters");
}

}  // namespace
}  // namespace adres::obs
