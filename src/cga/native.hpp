// Native execution tier (DESIGN.md §14): the launch-time half of
// ExecTier::kNative.
//
// buildKernelPlan (cga/plan.cpp) lowers every FU op to a NativeOpSpec whose
// body comes from nativeExecFn: a template-instantiated loop body
// specialized per (dispatch kind, latency class) — realized per opcode, so
// evalOp's switch constant-folds into the body (compute), and the memory
// width / extension mode / half-select collapse to straight-line code
// (loads, stores).
//
// At launch, CgaArray resolves each op's operand/destination selectors
// into raw pointers (FU output registers, local/central RF slots, plan
// immediates) once; the steady loop then runs pointer-to-pointer.  Only
// genuinely dynamic quantities remain per-cycle: L1 bank arbitration
// (stalls, conflicts) and the issue-cycle count.  The tier is bit- and
// cycle-exact with the reference loop (tests/cga/fastpath_ab_test).
#pragma once

#include "cga/plan.hpp"

namespace adres {

class Scratchpad;

/// One op with every operand resolved to a raw pointer for one CgaArray
/// instance (filled per launch from the plan's NativeOpSpec).
struct NativeResolvedOp {
  NativeExecFn fn = nullptr;
  const Word* a = nullptr;        ///< src1
  const Word* b = nullptr;        ///< src2 (plan immediate when kImm)
  const Word* c = nullptr;        ///< src3 (store data)
  Word* out = nullptr;            ///< the FU's output register
  Word* lrfDst = nullptr;         ///< optional local-RF slot
  Word* crfDst = nullptr;         ///< optional CDRF slot
  const Word* mergeSrc = nullptr; ///< LD_IH: current-dst low half at commit
  u32 lat = 1;
  u32 schedTime = 0;              ///< guarded prologue/epilogue squashing
  i32 imm = 0;                    ///< control-field immediate (C4SHUF, MOVI*)
  bool mergeHigh = false;         ///< LD_IH commit merge
};

/// One pending commit: the resolved op carries the destination pointers.
struct NativePending {
  const NativeResolvedOp* op = nullptr;
  Word value = 0;
};

/// Mutable per-launch execution state handed to every NativeExecFn.
struct NativeEngine {
  Scratchpad* l1 = nullptr;
  NativePending* wheel = nullptr;  ///< kCgaWheelSlots x depth, slot-major
  u32* wheelCount = nullptr;       ///< per-slot fill counts
  u32 depth = 1;                   ///< plan's maxCommitDepth
  u64 g = 0;                       ///< current logical cycle
  u64 wall = 0;                    ///< wall cycles elapsed (logical + stalls)
  u64 traceBase = 0;               ///< L1 arbitration timeline anchor
  int stall = 0;                   ///< max port wait this cycle
};

/// The specialized loop body for `op`: per opcode for compute ops, per
/// (width, extension mode) for loads and per (width, half) for stores.
/// Null only for an opcode outside the ISA.
NativeExecFn nativeExecFn(Opcode op);

}  // namespace adres
