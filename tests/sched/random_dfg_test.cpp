// Property test: randomly generated kernel dataflow graphs, scheduled and
// routed onto the array, must compute exactly what the reference
// interpreter says — across trip counts, op mixes, loads/stores, carried
// values and immediates.  This exercises the scheduler's placement,
// routing windows, LD_I/LD_IH pairing, preload seeding and the array's
// modulo sequencing far beyond the hand-written kernels.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "support/random_dfg.hpp"
#include "testutil.hpp"

namespace adres {
namespace {

using namespace testsupport;

class RandomDfg : public ::testing::TestWithParam<u64> {};

TEST_P(RandomDfg, ScheduledExecutionMatchesInterpreter) {
  const u64 seed = GetParam();
  const KernelDfg dfg = buildRandomKernel(seed);

  Rng rng(seed * 77 + 1);
  std::vector<u8> input(1024);
  for (auto& v : input) v = static_cast<u8>(rng.next());

  for (u32 trips : {1u, 2u, 9u}) {
    testutil::checkKernelAgainstReference(
        dfg, trips,
        {{kRandIdx, 0}, {kRandIn, 0x800}, {kRandOut, 0x1800}, {kRandAcc, 0}},
        {{0x800, input}}, 0x2200);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDfg,
                         ::testing::Range<u64>(1, 26));

}  // namespace
}  // namespace adres
