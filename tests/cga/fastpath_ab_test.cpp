// A/B equivalence of the two execution tiers (DESIGN.md §14): for every
// Table 2 fixture kernel, plans built at kReference and kNative must
// execute identically across trip counts that exercise the empty run,
// prologue/epilogue-only runs (no steady-state window) and the canonical
// steady-state run.  Equivalence means identical
// CgaRunResult, identical activity/memory statistics and an identical
// fabric checksum (output registers, local RFs, CRF, L1 contents).
#include <gtest/gtest.h>

#include "support/kernel_fixture.hpp"

namespace adres::testsupport {
namespace {

struct AbSnapshot {
  CgaRunResult r;
  u64 l1Reads = 0, l1Writes = 0, l1Conflicts = 0, l1ConflictCycles = 0;
  u64 cgaOps = 0, cgaRouteMoves = 0, simdOps = 0, ops16 = 0, transports = 0;
  u64 cdrfCgaAccesses = 0, l1CgaAccesses = 0;
  u64 contextFetches = 0;
  u64 lrfReads = 0, lrfWrites = 0;
  u64 checksum = 0;
};

template <typename RunFn>
AbSnapshot runCase(const KernelCase& c, u32 trips, RunFn&& run) {
  Fabric f;
  prepareFabric(f);
  c.setup(f);
  AbSnapshot s;
  s.r = run(f, trips);
  s.l1Reads = f.l1.stats().reads;
  s.l1Writes = f.l1.stats().writes;
  s.l1Conflicts = f.l1.stats().conflicts;
  s.l1ConflictCycles = f.l1.stats().conflictCycles;
  s.cgaOps = f.act.cgaOps;
  s.cgaRouteMoves = f.act.cgaRouteMoves;
  s.simdOps = f.act.simdOps;
  s.ops16 = f.act.ops16;
  s.transports = f.act.transports;
  s.cdrfCgaAccesses = f.act.cdrfCgaAccesses;
  s.l1CgaAccesses = f.act.l1CgaAccesses;
  s.contextFetches = f.cfg.stats().contextFetches;
  {
    const RegFileStats lrf = f.array.localRfTotals();
    s.lrfReads = lrf.reads;
    s.lrfWrites = lrf.writes;
  }
  s.checksum = fabricChecksum(f);  // bumps stats; keep last
  return s;
}

void expectEqual(const AbSnapshot& ref, const AbSnapshot& fast) {
  EXPECT_EQ(ref.r.cycles, fast.r.cycles);
  EXPECT_EQ(ref.r.arrayCycles, fast.r.arrayCycles);
  EXPECT_EQ(ref.r.stallCycles, fast.r.stallCycles);
  EXPECT_EQ(ref.r.issueCycles, fast.r.issueCycles);
  EXPECT_EQ(ref.r.ops, fast.r.ops);
  EXPECT_EQ(ref.r.routeMoves, fast.r.routeMoves);
  EXPECT_EQ(ref.l1Reads, fast.l1Reads);
  EXPECT_EQ(ref.l1Writes, fast.l1Writes);
  EXPECT_EQ(ref.l1Conflicts, fast.l1Conflicts);
  EXPECT_EQ(ref.l1ConflictCycles, fast.l1ConflictCycles);
  EXPECT_EQ(ref.cgaOps, fast.cgaOps);
  EXPECT_EQ(ref.cgaRouteMoves, fast.cgaRouteMoves);
  EXPECT_EQ(ref.simdOps, fast.simdOps);
  EXPECT_EQ(ref.ops16, fast.ops16);
  EXPECT_EQ(ref.transports, fast.transports);
  EXPECT_EQ(ref.cdrfCgaAccesses, fast.cdrfCgaAccesses);
  EXPECT_EQ(ref.l1CgaAccesses, fast.l1CgaAccesses);
  EXPECT_EQ(ref.contextFetches, fast.contextFetches);
  EXPECT_EQ(ref.lrfReads, fast.lrfReads);
  EXPECT_EQ(ref.lrfWrites, fast.lrfWrites);
  EXPECT_EQ(ref.checksum, fast.checksum);
}

TEST(CgaExecTierAbc, TiersMatchOnEveryFixtureKernel) {
  for (const KernelCase& c : tableTwoKernelCases()) {
    const KernelPlan ref = buildKernelPlan(c.config, ExecTier::kReference);
    const KernelPlan native = buildKernelPlan(c.config, ExecTier::kNative);
    ASSERT_EQ(ref.tier, ExecTier::kReference);
    ASSERT_EQ(native.tier, ExecTier::kNative);
    // 0: nothing runs; 1 and 2: prologue/epilogue overlap, steady-state
    // window empty or tiny; c.trips: the canonical Table 2 launch with a
    // real steady state.
    for (u32 trips : {0u, 1u, 2u, c.trips}) {
      SCOPED_TRACE(std::string(c.name) + " trips=" + std::to_string(trips));
      const AbSnapshot a = runCase(c, trips, [&](Fabric& f, u32 t) {
        return f.array.run(ref, t);
      });
      const AbSnapshot n = runCase(c, trips, [&](Fabric& f, u32 t) {
        return f.array.run(native, t);
      });
      expectEqual(a, n);
    }
  }
}

// Tier selection fails loudly at plan build, never silently at launch.
TEST(CgaExecTierAbc, UnknownTierThrowsAtPlanBuild) {
  const std::vector<KernelCase> cases = tableTwoKernelCases();
  EXPECT_THROW(buildKernelPlan(cases.front().config, static_cast<ExecTier>(7)),
               SimError);
  EXPECT_THROW(parseExecTier("turbo"), SimError);
  // "interpreted" names no tier; the error lists the two that exist.
  try {
    (void)parseExecTier("interpreted");
    ADD_FAILURE() << "parseExecTier(\"interpreted\") must throw";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("reference or native"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parseExecTier("reference"), ExecTier::kReference);
  EXPECT_EQ(parseExecTier("native"), ExecTier::kNative);
}

}  // namespace
}  // namespace adres::testsupport
