// Collectors shared by the schedule byte-identity test and the
// timing_golden_dump generator (its --schedule mode): map every kernel DFG
// the modem program maps, plus a fixed set of seeded random DFGs, and
// reduce each mapping to its encoded config bytes and its full
// ScheduleDiagnostics record.  The mapper's data structures may change
// freely as long as these hashes do not.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cga/context.hpp"
#include "common/check.hpp"
#include "sched/modulo.hpp"
#include "sdr/kernels.hpp"
#include "sdr/tables.hpp"
#include "support/random_dfg.hpp"
#include "support/timing_golden_common.hpp"

namespace adres::testsupport {

struct ScheduleGoldenRow {
  std::string name;
  int ii = 0;               ///< mapped II; 0 when scheduleKernel threw
  int attempts = 0;         ///< ScheduleDiagnostics::attempts.size()
  u64 configHash = 0;       ///< FNV-1a of encodeKernel(config); 0 on failure
  u64 diagnosticsHash = 0;  ///< every ScheduleDiagnostics/ScheduleAttempt field
};

inline u64 fnv1aString(u64 h, const std::string& s) {
  h = fnv1a(h, s.size());
  for (char ch : s) h = fnv1a(h, static_cast<u8>(ch));
  return h;
}

inline u64 diagnosticsHash(const ScheduleDiagnostics& d) {
  u64 h = kFnvSeed;
  h = fnv1aString(h, d.kernel);
  h = fnv1a(h, static_cast<u64>(d.miiResource));
  h = fnv1a(h, static_cast<u64>(d.miiRecurrence));
  h = fnv1a(h, d.succeeded ? 1 : 0);
  h = fnv1a(h, static_cast<u64>(d.finalII));
  h = fnv1a(h, static_cast<u64>(d.finalMoves));
  h = fnv1a(h, d.attempts.size());
  for (const ScheduleAttempt& a : d.attempts) {
    h = fnv1a(h, static_cast<u64>(a.ii));
    h = fnv1a(h, static_cast<u64>(a.restart));
    h = fnv1a(h, a.success ? 1 : 0);
    h = fnv1a(h, static_cast<u64>(a.placedNodes));
    h = fnv1a(h, static_cast<u64>(a.failedNode));
    h = fnv1aString(h, a.failedOp);
    h = fnv1aString(h, a.lastReject);
    h = fnv1a(h, static_cast<u64>(a.placementRejects));
    h = fnv1a(h, static_cast<u64>(a.routeFailures));
    h = fnv1a(h, static_cast<u64>(a.routeMoves));
  }
  return h;
}

/// Maps `g` under `opt` and reduces the outcome to a row.  A mapping
/// failure is a row too: the diagnostics scheduleKernel fills before it
/// throws are part of the contract.
inline ScheduleGoldenRow scheduleGoldenRow(const std::string& name,
                                           const KernelDfg& g,
                                           ScheduleOptions opt = {}) {
  ScheduleDiagnostics diag;
  opt.diag = &diag;
  ScheduleGoldenRow row;
  row.name = name;
  try {
    const ScheduledKernel k = scheduleKernel(g, opt);
    row.ii = k.ii;
    u64 h = kFnvSeed;
    for (u8 b : encodeKernel(k.config)) h = fnv1a(h, b);
    h = fnv1a(h, static_cast<u64>(k.opNodes));
    h = fnv1a(h, static_cast<u64>(k.routeMoves));
    h = fnv1a(h, static_cast<u64>(k.schedLength));
    row.configHash = h;
  } catch (const SimError&) {
    row.ii = 0;
    row.configHash = 0;
  }
  row.attempts = diag.totalAttempts();
  row.diagnosticsHash = diagnosticsHash(diag);
  return row;
}

/// The 18 kernel DFGs the modem program maps (sdr/modem_program.cpp), in
/// kernel-table order: the 17 Table 2 kernels with the QAM-64 demod, then
/// the QAM-16 demod.
inline std::vector<std::pair<std::string, std::function<KernelDfg()>>>
modemKernelDfgs() {
  using namespace sdr;
  std::vector<std::pair<std::string, std::function<KernelDfg()>>> ks = {
      {"acorr", AcorrKernel::build},   {"cfo", CfoCorrKernel::build},
      {"fshift", FshiftKernel::build}, {"xcorr", XcorrKernel::build},
      {"bitrev", BitrevKernel::build}, {"fft_stage1", FftStage1Kernel::build},
  };
  for (int s = 2; s <= 6; ++s) {
    const int halfBytes = fftStageTables(s, 4).halfBytes;
    ks.push_back({"fft_stage" + std::to_string(s), [halfBytes, s] {
                    return FftStageKernel::build(halfBytes, /*scaleX8=*/s == 6);
                  }});
  }
  ks.push_back({"interleave", InterleaveKernel::build});
  ks.push_back({"chest", ChestKernel::build});
  ks.push_back({"eqnorm", EqCoeffKernel::buildNorm});
  ks.push_back({"eqapply", EqCoeffKernel::buildApply});
  ks.push_back({"comp", CompKernel::build});
  ks.push_back({"demod", DemodKernel::build});
  ks.push_back({"demod16", DemodKernel::build16});
  return ks;
}

inline std::vector<ScheduleGoldenRow> collectModemScheduleGolden() {
  std::vector<ScheduleGoldenRow> rows;
  for (const auto& [name, build] : modemKernelDfgs())
    rows.push_back(scheduleGoldenRow(name, build()));
  return rows;
}

/// Seeds of the random_dfg_test graphs pinned by the fixture.
inline constexpr u64 kScheduleGoldenRandomSeeds = 64;

/// A deliberately starved option set: a short time window, two scratch
/// CDRF registers, few restarts and a low II ceiling, so CDRF exhaustion,
/// window misses and outright mapping failures are pinned as well.
inline ScheduleOptions starvedScheduleOptions() {
  ScheduleOptions o;
  o.maxII = 6;
  o.timeWindow = 3;
  o.scratchCdrfFirst = 62;
  o.scratchCdrfLast = 63;
  o.restartsPerII = 2;
  return o;
}

inline std::vector<ScheduleGoldenRow> collectRandomScheduleGolden() {
  std::vector<ScheduleGoldenRow> rows;
  for (u64 seed = 1; seed <= kScheduleGoldenRandomSeeds; ++seed) {
    const KernelDfg g = buildRandomKernel(seed);
    rows.push_back(scheduleGoldenRow(g.name, g));
    rows.push_back(
        scheduleGoldenRow(g.name + "/starved", g, starvedScheduleOptions()));
  }
  return rows;
}

}  // namespace adres::testsupport
