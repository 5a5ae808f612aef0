// Execution tiers of the kernel engine (DESIGN.md §14).
//
// A kernel plan is built FOR a tier; CgaArray::run dispatches on the plan's
// tier.  The two tiers are bit- and cycle-exact with each other — they
// differ only in host speed and in how much work is hoisted out of the
// per-cycle loop:
//  - kReference: the original per-cycle re-classification loop with a
//    sorted pending queue.  Slowest; the equivalence oracle, the traced
//    path and the sentinel's shadow behind a native farm.
//  - kNative: template-instantiated per-(dispatch kind, latency class)
//    steady-loop bodies over launch-resolved operand pointers, whole-launch
//    batched statistics and no-retire cycle skipping.  The only fast path.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace adres {

enum class ExecTier : u8 {
  kReference = 0,
  kNative = 1,
};

inline constexpr int kExecTierCount = 2;

/// Stable lower-case label ("reference" / "native").
const char* execTierName(ExecTier t);

/// Parses a tier label; throws SimError on anything unknown (no silent
/// fallback — tier selection fails loudly).
ExecTier parseExecTier(std::string_view s);

/// The process-wide default tier: ADRES_EXEC_TIER in the environment
/// ("reference" / "native", read once and cached; an invalid value throws
/// SimError), else kNative.  CI sweeps the whole test suite across tiers
/// through this hook.
ExecTier defaultExecTier();

}  // namespace adres
