// CGA array execution engine.
//
// Runs a mapped loop (a KernelPlan decoded from its KernelConfig) for a
// given trip count, cycle by cycle: context slot = cycle mod II,
// software-pipeline prologue/epilogue squashing via each op's schedTime,
// registered FU outputs, local/central RF traffic, L1 bank arbitration with
// whole-array stall on contention (the paper's transparent queuing), and
// activity accounting for the power model.
//
// Timing convention: an op issued at logical cycle g commits its results
// (output register, RF writes) at the start of cycle g+latency — commits
// happen before operand reads within a cycle, so a consumer scheduled
// exactly latency cycles later reads the fresh value.
#pragma once

#include <array>
#include <vector>

#include "common/activity.hpp"
#include "common/types.hpp"
#include "cga/context.hpp"
#include "cga/native.hpp"
#include "cga/plan.hpp"
#include "mem/config_mem.hpp"
#include "mem/scratchpad.hpp"
#include "regfile/regfiles.hpp"
#include "trace/trace.hpp"

namespace adres {

/// Cycle cost of switching VLIW->CGA or CGA->VLIW (pipeline drain + context
/// pointer setup; DESIGN.md §3).
inline constexpr int kModeSwitchCycles = 4;

struct CgaRunResult {
  u64 cycles = 0;       ///< total CGA-mode cycles (preloads + array + writebacks)
  u64 arrayCycles = 0;  ///< logical context cycles executed
  u64 stallCycles = 0;  ///< extra wall cycles from L1 contention
  u64 issueCycles = 0;  ///< logical cycles on which at least one op issued
  u64 ops = 0;          ///< non-squashed, non-nop ops executed
  u64 routeMoves = 0;   ///< subset of ops that are routing MOVs

  double ipc() const { return cycles ? static_cast<double>(ops) / static_cast<double>(cycles) : 0.0; }
};

class CgaArray {
 public:
  CgaArray(CentralRegFile& crf, Scratchpad& l1, ConfigMemory& cfg,
           ActivityCounters& act)
      : crf_(crf), l1_(l1), cfg_(cfg), act_(act) {}

  /// Executes a pre-decoded plan for `trips` iterations, dispatching on the
  /// tier it was built for (DESIGN.md §14): kReference replays the original
  /// per-cycle loop over the plan's source config, kNative runs the
  /// template-specialized loop with whole-launch batched statistics and
  /// no-retire cycle skipping.  Both tiers are bit- and cycle-exact with
  /// each other (tests/cga/fastpath_ab_test); a kNative plan with a trace
  /// sink attached runs the reference loop, the one that emits per-op
  /// events.  The caller (core) accounts the mode-switch overhead; this
  /// returns the in-mode cycle cost.  `traceBase` anchors the kernel-local
  /// timeline on the core's absolute cycle counter and `kernelId` labels
  /// trace events; both are trace-only.
  CgaRunResult run(const KernelPlan& plan, u32 trips, u64 traceBase = 0,
                   u32 kernelId = 0);

  /// Test access to the fabric state.
  Word outputReg(int fu) const { return outRegs_[static_cast<std::size_t>(fu)]; }
  const LocalRegFile& localRf(int fu) const { return localRfs_[static_cast<std::size_t>(fu)]; }
  LocalRegFile& localRf(int fu) { return localRfs_[static_cast<std::size_t>(fu)]; }

  /// Aggregate local-RF traffic (for the power model).
  RegFileStats localRfTotals() const;

  void clearState();

  void setTrace(TraceSink* t) { trace_ = t; }

 private:
  struct PendingWrite {
    u64 commitCycle = 0;
    u8 fu = 0;
    DstSel dst;
    Word value = 0;
    /// LD_IH: merge `value` (high 32 bits) with the destination's low half
    /// at commit time — the paired LD_I may itself still be in flight.
    bool mergeHigh = false;
  };

  Word currentDst(int fu, const DstSel& dst) const;
  void commitWrite(const PendingWrite& pw);

  Word readSrc(int fu, const SrcSel& s, i32 imm);

  /// kReference tier: the original per-cycle re-classification loop with a
  /// sorted pending queue — the equivalence oracle for the A/B tests and
  /// the traced path.
  CgaRunResult runReferenceLoop(const KernelConfig& k, u32 trips,
                                u64 traceBase, u32 kernelId);

  /// kNative tier (cga/native.cpp): resolves the plan's op specs to raw
  /// pointers once per launch, then runs the template-specialized loop.
  CgaRunResult runNative(const KernelPlan& plan, u32 trips, u64 traceBase);
  void resolveNative(const KernelPlan& plan);

  /// Native-tier launch scratch: resolved ops and the flat commit wheel
  /// (kCgaWheelSlots x maxCommitDepth, slot-major).  Member state so the
  /// allocations persist across launches.
  std::vector<NativeResolvedOp> nativeOps_;
  std::vector<NativePending> nativeWheel_;
  std::array<u32, kCgaWheelSlots> nativeWheelCounts_ = {};

  CentralRegFile& crf_;
  Scratchpad& l1_;
  ConfigMemory& cfg_;
  ActivityCounters& act_;

  std::array<LocalRegFile, kCgaFus> localRfs_;
  std::array<Word, kCgaFus> outRegs_ = {};
  TraceSink* trace_ = nullptr;
};

}  // namespace adres
