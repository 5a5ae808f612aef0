// Golden adres.counters.v1 regression: the bytes of every counter
// rendering — the processor dump after a Table 2 modem decode and a
// 3-worker farm's adres_sim_counter exposition lines — are locked (FNV-1a
// hash + length, QAM-64 and QAM-16) into tests/trace/counters_golden.inc.  Refactors of the counter plumbing must
// reproduce every byte; a deliberate schema change regenerates the fixture
// with `timing_golden_dump --counters` and justifies the diff.
#include <gtest/gtest.h>

#include "support/counters_golden_common.hpp"

namespace adres::testsupport {
namespace {

struct CountersGoldenRow {
  const char* mod;
  DumpDigest processor;
  DumpDigest simCounterLines;
};

#include "counters_golden.inc"

void expectDigest(const DumpDigest& got, const DumpDigest& want,
                  const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.hash, want.hash);
}

void expectMatchesFixture(dsp::Modulation mod) {
  const CountersGolden g = collectCountersGolden(mod);
  const std::string label = modulationLabel(mod);
  for (const CountersGoldenRow& row : kCountersGolden) {
    if (label != row.mod) continue;
    expectDigest(g.processor, row.processor, "processor dump");
    expectDigest(g.simCounterLines, row.simCounterLines,
                 "adres_sim_counter lines");
    return;
  }
  FAIL() << "no fixture row for " << label;
}

TEST(CountersGolden, Qam64DumpsMatchFixture) {
  expectMatchesFixture(dsp::Modulation::kQam64);
}

TEST(CountersGolden, Qam16DumpsMatchFixture) {
  expectMatchesFixture(dsp::Modulation::kQam16);
}

}  // namespace
}  // namespace adres::testsupport
