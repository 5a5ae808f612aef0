// Decoded kernel plans: the per-KernelConfig pre-decode behind the
// simulator's native execution tier (DESIGN.md §14).
//
// The reference loop re-classifies every FU op on every logical cycle
// (isNop / opInfo / memImmScale / ops16PerInstr switch chains across
// translation units) and re-tests the software-pipeline squash predicates
// per op.  buildKernelPlan resolves all of that once per kernel, lowering
// each active FU op straight into a NativeOpSpec:
//  - a function pointer to a template-instantiated loop body (cga/native.cpp)
//    specialized per (dispatch kind, latency class) — per opcode for compute
//    ops, per (width, mode) for memory ops — plus the op's selectors and
//    pre-resolved immediates;
//  - per-iteration statistics (op counts, operand transports, RF and L1
//    traffic, down to per-FU local-RF reads/writes), pre-summed once.  Every
//    scheduled op issues exactly `trips` times per launch, so every
//    op-derived counter of a launch is `perIter * trips` plus the
//    preload/writeback constants — the executing loop touches no counter;
//  - per-residue commit landing depths bounding the flat commit wheel, and
//    no-retire skip runs over residues on which no op issues and no result
//    retires.
// The plan keeps its validated source KernelConfig: the reference tier (and
// any traced launch) runs the original per-cycle loop over it.  Both tiers
// are cycle-exact and bit-exact with each other (tests/cga/fastpath_ab_test).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "cga/context.hpp"
#include "cga/exec_tier.hpp"

namespace adres {

struct NativeResolvedOp;  // cga/native.hpp: an op resolved for one launch
struct NativeEngine;      // cga/native.hpp: mutable per-launch loop state

/// A specialized steady-loop body: executes one op at the engine's current
/// cycle (reads through resolved pointers, pushes its commit, books L1
/// ports).
using NativeExecFn = void (*)(const NativeResolvedOp&, NativeEngine&);

/// Dispatch class of an active FU op, resolved at plan-build time.
enum class PlanOpKind : u8 { kCompute, kLoad, kStore };

/// Commit-wheel geometry of the native loop.  Correctness needs
/// 2 * maxLatency <= kCgaWheelSlots (a slot is always drained before any
/// push can wrap onto it); buildKernelPlan checks every op against it.
inline constexpr u64 kCgaWheelSlots = 16;
inline constexpr u64 kCgaWheelMask = kCgaWheelSlots - 1;

/// One active (non-nop) FU op: everything launch-time resolution needs,
/// plus the stable storage the resolved immediate pointers alias (plans are
/// immutable and outlive every launch).
struct NativeOpSpec {
  NativeExecFn fn = nullptr;
  u8 fu = 0;
  u8 lat = 1;
  u16 schedTime = 0;
  SrcSel src1, src2, src3;
  DstSel dst;
  i32 imm = 0;
  /// Operand values when the corresponding src is kImm (0 for kNone);
  /// imm2 is the pre-scaled memory immediate for memory ops.
  Word imm1 = 0, imm2 = 0, imm3 = 0;
  bool mergeHigh = false;  ///< LD_IH: low half merged at commit
};

struct NativeContextInfo {
  u32 begin = 0;  ///< flat [begin, end) op range of this context slot
  u32 end = 0;
  u32 opCount = 0;
  /// No-retire cycle skip: the number of consecutive steady-state cycles,
  /// starting at this residue, on which no op issues AND no commit retires
  /// (0 when this residue is active).  The steady loop advances the cycle
  /// counter across the whole run in one step.
  u32 skipRun = 0;
};

/// Per-iteration statically-known statistics.  A launch adds
/// `perIter * trips` (plus the preload/writeback constants) to each counter.
struct NativeIterStats {
  u64 ops = 0;
  u64 movs = 0;
  u64 simd = 0;
  u64 ops16 = 0;
  u64 transports = 0;   ///< kOutput operand reads + one per committed result
  u64 cdrf = 0;         ///< CDRF accesses (kGlobalRf reads + toGlobalRf commits)
  u64 crfReads = 0;
  u64 crfWrites = 0;
  u64 l1Reads = 0;
  u64 l1Writes = 0;
  u64 l1Accesses = 0;
  std::array<u64, kCgaFus> lrfReads = {};
  std::array<u64, kCgaFus> lrfWrites = {};
};

/// Per-iteration op count of one (dispatch kind, latency) class across the
/// whole kernel.  A launch's per-class op totals are `ops * trips` — the
/// profiler attributes steady-state work without touching the hot loop.
struct PlanClassCount {
  PlanOpKind kind = PlanOpKind::kCompute;
  u8 lat = 1;
  u32 ops = 0;  ///< scheduled ops of this class per iteration
};

/// A fully pre-decoded kernel: everything CgaArray::run needs.  A plan is
/// built FOR an execution tier (DESIGN.md §14); CgaArray::run dispatches on
/// it.  Both tiers carry the same decoded form.
struct KernelPlan {
  ExecTier tier = ExecTier::kNative;
  /// Steady-state window: logical cycle g has no squashed op iff
  /// g >= maxSchedTime and g < minSchedTime + trips * ii.
  u32 maxSchedTime = 0;
  u32 minSchedTime = 0;
  std::vector<NativeOpSpec> ops;  ///< contexts concatenated, FU-ascending
  std::vector<NativeContextInfo> contexts;  ///< size == ii
  NativeIterStats perIter;
  /// Max commits retiring on any single cycle (sizes the flat wheel).
  u32 maxCommitDepth = 1;
  std::vector<PlanClassCount> classes;  ///< (kind, lat)-ascending
  KernelConfig source;  ///< the validated decode the plan was built from
};

/// Pre-decodes `k` for `tier` (validating it, as the reference path does).
/// An out-of-range tier throws SimError — tier selection fails loudly at
/// plan build, never silently at launch.
KernelPlan buildKernelPlan(const KernelConfig& k, ExecTier tier);

/// Decoded plans of a whole program's kernel table, shared read-only
/// between processors (the packet farm's workers share one instance the
/// same way they share the mapped program).
struct ProgramPlans {
  ExecTier tier = ExecTier::kNative;  ///< tier every plan was built for
  std::vector<KernelPlan> kernels;
};

/// Builds plans for a kernel table.  Each kernel is first round-tripped
/// through encodeKernel/decodeKernel so the plan describes exactly what the
/// sequencer reads back out of configuration memory after Processor::load
/// (idempotent for kernels that already went through the binary path).
std::shared_ptr<const ProgramPlans> buildProgramPlans(
    const std::vector<KernelConfig>& kernels, ExecTier tier);

/// How a processor executes kernel launches: the tier plus an optional
/// pre-built plan-cache handle (the packet farm shares one read-only
/// ProgramPlans across workers).  Owned by sdr::RxRunOptions and passed to
/// Processor::load — this replaces the former ad-hoc plan threading
/// through ModemOnProcessor.  When `plans` is set its tier must equal
/// `tier`; when null, the loader builds plans at `tier`.
struct ExecPolicy {
  ExecTier tier = defaultExecTier();
  std::shared_ptr<const ProgramPlans> plans;
  /// Allow the warm-reload fast path: when the SAME Program object (by
  /// address) is re-loaded with the same shared plans and tier, the loader
  /// skips re-validating and re-encoding the unchanged image and only
  /// replays the load-time DMA transfers (identical bookings, identical
  /// memory bytes) and the state reset.  Callers must guarantee the Program
  /// is immutable between loads — RxSession's resident modem program is;
  /// default off for ad-hoc loads where the object may have been edited.
  bool warmReload = false;
};

}  // namespace adres
