// Mapper byte-identity regression: every kernel DFG the modem program maps
// (the 17 Table 2 kernels plus the QAM-16 demod) and a fixed set of seeded
// random DFGs (under default and starved options) must map to exactly the
// encoded config bytes and exactly the ScheduleDiagnostics records locked
// into tests/sched/schedule_golden.inc.  Data-structure and speed work on
// the scheduler must reproduce every value; an intentional mapping change
// regenerates the fixture with `timing_golden_dump --schedule` and
// justifies the diff.
#include <gtest/gtest.h>

#include "support/schedule_golden_common.hpp"

namespace adres::testsupport {
namespace {

#include "schedule_golden.inc"

template <std::size_t N>
void expectRowsMatch(const std::vector<ScheduleGoldenRow>& got,
                     const ScheduleGoldenRow (&want)[N]) {
  ASSERT_EQ(got.size(), N) << "DFG set changed; regenerate the fixture";
  for (std::size_t i = 0; i < N; ++i) {
    SCOPED_TRACE("dfg: " + want[i].name);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].ii, want[i].ii);
    EXPECT_EQ(got[i].attempts, want[i].attempts);
    EXPECT_EQ(got[i].configHash, want[i].configHash);
    EXPECT_EQ(got[i].diagnosticsHash, want[i].diagnosticsHash);
  }
}

TEST(ScheduleGolden, ModemKernelsMatchFixture) {
  expectRowsMatch(collectModemScheduleGolden(), kModemScheduleGolden);
}

TEST(ScheduleGolden, RandomDfgsMatchFixture) {
  expectRowsMatch(collectRandomScheduleGolden(), kRandomScheduleGolden);
}

}  // namespace
}  // namespace adres::testsupport
