// Golden timing regression: the cycle-accurate model's observable timing —
// per-kernel CgaRunResult rows (cycles/ops/stalls plus a state checksum)
// and the Table 2 modem run (region profiles, total cycles, decoded bits,
// counter hash) — is locked into tests/core/timing_golden.inc.  Hot-loop
// refactors (pre-decode, commit wheel, native tier, ...) must reproduce
// every value bit-for-bit; an intentional timing-model change must
// regenerate the fixture with timing_golden_dump and justify the diff.
//
// The fixture is tier-independent: every ExecTier (DESIGN.md §14) is swept
// against the SAME committed values, so the reference loop and the native
// specialized loop are both pinned to one timing model.  The traced-decode
// event stream is pinned the same way by trace_golden.inc.
#include <gtest/gtest.h>

#include "support/timing_golden_common.hpp"

namespace adres::testsupport {
namespace {

#include "timing_golden.inc"
#include "trace_golden.inc"

constexpr ExecTier kAllTiers[] = {ExecTier::kReference, ExecTier::kNative};

TEST(TimingGolden, KernelRowsMatchFixtureOnEveryTier) {
  for (ExecTier tier : kAllTiers) {
    SCOPED_TRACE(std::string("tier: ") + execTierName(tier));
    const std::vector<KernelGoldenRow> rows = collectKernelGolden(tier);
    const std::size_t n = sizeof(kKernelGolden) / sizeof(kKernelGolden[0]);
    ASSERT_EQ(rows.size(), n) << "kernel set changed; regenerate the fixture";
    for (std::size_t i = 0; i < n; ++i) {
      const KernelGoldenRow& got = rows[i];
      const KernelGoldenRow& want = kKernelGolden[i];
      SCOPED_TRACE("kernel: " + want.name);
      EXPECT_EQ(got.name, want.name);
      EXPECT_EQ(got.cycles, want.cycles);
      EXPECT_EQ(got.arrayCycles, want.arrayCycles);
      EXPECT_EQ(got.stallCycles, want.stallCycles);
      EXPECT_EQ(got.ops, want.ops);
      EXPECT_EQ(got.routeMoves, want.routeMoves);
      EXPECT_EQ(got.checksum, want.checksum);
    }
  }
}

void expectModemMatchesFixture(const ModemGolden& m) {
  EXPECT_EQ(m.detected, kModemDetected);
  EXPECT_EQ(m.ltfStart, kModemLtfStart);
  EXPECT_EQ(m.cycles, kModemCycles);
  EXPECT_EQ(m.bitsHash, kModemBitsHash);
  EXPECT_EQ(m.countersHash, kModemCountersHash);

  const std::size_t n = sizeof(kRegionGolden) / sizeof(kRegionGolden[0]);
  ASSERT_EQ(m.regions.size(), n) << "region set changed; regenerate fixture";
  for (std::size_t i = 0; i < n; ++i) {
    const RegionGoldenRow& got = m.regions[i];
    const RegionGoldenRow& want = kRegionGolden[i];
    SCOPED_TRACE("region: " + want.name);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.vliwCycles, want.vliwCycles);
    EXPECT_EQ(got.cgaCycles, want.cgaCycles);
    EXPECT_EQ(got.ops, want.ops);
    EXPECT_EQ(got.entries, want.entries);
  }
}

// One test per tier (the modem run dominates suite wall time; keep the
// sweeps schedulable in parallel by ctest).
TEST(TimingGolden, ModemRunMatchesFixtureReference) {
  expectModemMatchesFixture(collectModemGolden(ExecTier::kReference));
}

TEST(TimingGolden, ModemRunMatchesFixtureNative) {
  expectModemMatchesFixture(collectModemGolden(ExecTier::kNative));
}

// The traced path feeds Chrome traces and postmortem bundle rings; every
// tier must emit the identical event stream.
TEST(TimingGolden, TracedModemStreamMatchesFixtureOnEveryTier) {
  for (int t = 0; t < kExecTierCount; ++t) {
    const ExecTier tier = static_cast<ExecTier>(t);
    SCOPED_TRACE(std::string("tier: ") + execTierName(tier));
    const TraceGolden got = collectTraceGolden(tier);
    EXPECT_EQ(got.events, kTraceEvents);
    EXPECT_EQ(got.hash, kTraceHash);
  }
}

}  // namespace
}  // namespace adres::testsupport
