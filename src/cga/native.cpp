// Native execution tier: the specialized loop bodies (nativeExecFn) and
// the launch loop (CgaArray::runNative).  See cga/native.hpp for the tier's
// design and DESIGN.md §14 for the exactness contract.
#include "cga/native.hpp"

#include <algorithm>

#include "cga/array.hpp"
#include "common/check.hpp"
#include "isa/semantics.hpp"
#include "mem/scratchpad.hpp"

namespace adres {
namespace {

/// How a load's raw memory word becomes the committed register value
/// (pre-decoded applyLoadResult).
enum class LoadMode : u8 {
  kZext,   ///< LD_UC / LD_UC2 / LD_I: width-masked raw, high half cleared
  kSext8,  ///< LD_C
  kSext16, ///< LD_C2
  kHigh,   ///< LD_IH: raw << 32, low half merged at commit
};

// Pushes one result onto the flat commit wheel.  The slot holds only
// commits due at a single cycle (every processed cycle drains its slot and
// 2 * maxLatency <= kCgaWheelSlots forbids wrap-around), and the per-cycle
// landing count is bounded by the plan's maxCommitDepth.
inline void pushCommit(const NativeResolvedOp& op, NativeEngine& e, Word v) {
  const u32 slot = static_cast<u32>((e.g + op.lat) & kCgaWheelMask);
  ADRES_DCHECK(e.wheelCount[slot] < e.depth, "commit wheel overflow");
  e.wheel[slot * e.depth + e.wheelCount[slot]++] = NativePending{&op, v};
}

// Compute body, one instantiation per opcode: evalOpInline's switch
// constant-folds away, leaving the opcode's straight-line semantics.
template <Opcode Op>
void execCompute(const NativeResolvedOp& op, NativeEngine& e) {
  pushCommit(op, e, evalOpInline(Op, *op.a, *op.b, op.imm));
}

// L1 bank arbitration stays per-access: stalls and conflicts are the only
// genuinely dynamic statistics of a launch.
inline u32 bookPort(const NativeResolvedOp& op, NativeEngine& e) {
  const u32 addr = lo32u(*op.a) + lo32u(*op.b);
  const int extra = e.l1->requestPort(e.traceBase + e.wall, addr);
  if (extra > e.stall) e.stall = extra;
  return addr;
}

template <int Bytes, LoadMode Mode>
void execLoad(const NativeResolvedOp& op, NativeEngine& e) {
  const u32 addr = bookPort(op, e);
  u32 raw;
  if constexpr (Bytes == 1) {
    raw = e.l1->peek8(addr);
  } else if constexpr (Bytes == 2) {
    raw = e.l1->peek16(addr);
  } else {
    raw = e.l1->peek32(addr);
  }
  Word v;
  if constexpr (Mode == LoadMode::kZext) {
    v = static_cast<Word>(raw);
  } else if constexpr (Mode == LoadMode::kSext8) {
    v = static_cast<Word>(static_cast<u32>(static_cast<i32>(static_cast<i8>(raw))));
  } else if constexpr (Mode == LoadMode::kSext16) {
    v = static_cast<Word>(static_cast<u32>(static_cast<i32>(static_cast<i16>(raw))));
  } else {
    v = static_cast<u64>(raw) << 32;  // kHigh: low half merged at commit
  }
  pushCommit(op, e, v);
}

template <int Bytes, bool High>
void execStore(const NativeResolvedOp& op, NativeEngine& e) {
  const u32 addr = bookPort(op, e);
  const Word data = *op.c;
  const u32 v = High ? static_cast<u32>(data >> 32) : lo32u(data);
  if constexpr (Bytes == 1) {
    e.l1->poke8(addr, v & 0xFFu);
  } else if constexpr (Bytes == 2) {
    e.l1->poke16(addr, v & 0xFFFFu);
  } else {
    e.l1->poke32(addr, v);
  }
}

NativeExecFn computeFn(Opcode op) {
  switch (op) {
#define ADRES_NATIVE_COMPUTE(name, group, lat, mask) \
  case Opcode::name:                                 \
    return &execCompute<Opcode::name>;
    ADRES_OPCODE_LIST(ADRES_NATIVE_COMPUTE)
#undef ADRES_NATIVE_COMPUTE
  }
  return nullptr;
}

}  // namespace

NativeExecFn nativeExecFn(Opcode op) {
  switch (op) {
    case Opcode::LD_UC: return &execLoad<1, LoadMode::kZext>;
    case Opcode::LD_C: return &execLoad<1, LoadMode::kSext8>;
    case Opcode::LD_UC2: return &execLoad<2, LoadMode::kZext>;
    case Opcode::LD_C2: return &execLoad<2, LoadMode::kSext16>;
    case Opcode::LD_I: return &execLoad<4, LoadMode::kZext>;
    case Opcode::LD_IH: return &execLoad<4, LoadMode::kHigh>;
    case Opcode::ST_C: return &execStore<1, false>;
    case Opcode::ST_C2: return &execStore<2, false>;
    case Opcode::ST_I: return &execStore<4, false>;
    case Opcode::ST_IH: return &execStore<4, true>;
    default: return computeFn(op);
  }
}

void CgaArray::resolveNative(const KernelPlan& plan) {
  // Operand pointer: FU output register, RF slot, or the spec's immediate
  // storage (which also serves kNone as a zero).  Plans are immutable and
  // outlive the launch, so aliasing their immediates is safe.
  auto srcPtr = [&](const SrcSel& s, const Word* immSlot,
                    std::size_t fu) -> const Word* {
    switch (s.kind) {
      case SrcKind::kOutput: return &outRegs_[s.index];
      case SrcKind::kLocalRf: return localRfs_[fu].slotPtr(s.index);
      case SrcKind::kGlobalRf: return crf_.slotPtr(s.index);
      default: return immSlot;
    }
  };

  nativeOps_.resize(plan.ops.size());
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const NativeOpSpec& s = plan.ops[i];
    NativeResolvedOp& r = nativeOps_[i];
    const std::size_t fu = s.fu;
    r.fn = s.fn;
    r.lat = s.lat;
    r.schedTime = s.schedTime;
    r.imm = s.imm;
    r.mergeHigh = s.mergeHigh;
    r.a = srcPtr(s.src1, &s.imm1, fu);
    r.b = srcPtr(s.src2, &s.imm2, fu);
    r.c = srcPtr(s.src3, &s.imm3, fu);
    r.out = &outRegs_[fu];
    r.lrfDst = s.dst.toLocalRf ? localRfs_[fu].slotPtr(s.dst.localAddr) : nullptr;
    r.crfDst = s.dst.toGlobalRf ? crf_.slotPtr(s.dst.globalAddr) : nullptr;
    // LD_IH merges the current destination's low half (currentDst order:
    // local RF, then CDRF, then the output register).
    r.mergeSrc = r.lrfDst ? r.lrfDst
                          : (r.crfDst ? static_cast<const Word*>(r.crfDst)
                                      : static_cast<const Word*>(r.out));
  }

  const std::size_t need = kCgaWheelSlots * plan.maxCommitDepth;
  if (nativeWheel_.size() < need) nativeWheel_.resize(need);
  nativeWheelCounts_.fill(0);
}

CgaRunResult CgaArray::runNative(const KernelPlan& plan, u32 trips,
                                 u64 traceBase) {
  const KernelConfig& k = plan.source;
  CgaRunResult res;
  // Each kernel launch runs on its own local timeline; clear the bank-port
  // bookings left by previous launches or VLIW-mode accesses.
  l1_.arbiter().reset();

  for (const Preload& p : k.preloads)
    localRfs_[p.fu].poke(p.localReg, crf_.peek(p.globalReg));
  const u64 preCycles = (k.preloads.size() + 2) / 3;

  const u64 ii = static_cast<u64>(k.ii);
  const u64 totalLogical =
      trips == 0 ? 0
                 : (static_cast<u64>(trips) - 1) * ii +
                       static_cast<u64>(k.schedLength);
  cfg_.noteContextFetches(totalLogical);

  resolveNative(plan);
  NativeEngine e;
  e.l1 = &l1_;
  e.wheel = nativeWheel_.data();
  e.wheelCount = nativeWheelCounts_.data();
  e.depth = plan.maxCommitDepth;
  e.traceBase = traceBase;

  // Commits due at cycle `g` (before reads), in issue order.
  auto drainSlot = [&](u64 g) {
    const u32 slot = static_cast<u32>(g & kCgaWheelMask);
    const u32 n = e.wheelCount[slot];
    if (n == 0) return;
    NativePending* p = e.wheel + slot * e.depth;
    for (u32 i = 0; i < n; ++i) {
      const NativeResolvedOp& o = *p[i].op;
      Word v = p[i].value;
      if (o.mergeHigh) v |= *o.mergeSrc & 0xFFFFFFFFull;
      *o.out = v;
      if (o.lrfDst) *o.lrfDst = v;
      if (o.crfDst) *o.crfDst = v;
    }
    e.wheelCount[slot] = 0;
  };

  // Guarded prologue/epilogue: per-op squash checks; all op-derived
  // statistics are already covered by the whole-launch batch below (every
  // op issues exactly `trips` times across the launch).
  auto runGuarded = [&](u64 from, u64 to) {
    for (u64 g = from; g < to; ++g) {
      drainSlot(g);
      const NativeContextInfo& ctx = plan.contexts[g % ii];
      e.g = g;
      e.stall = 0;
      bool issued = false;
      for (u32 i = ctx.begin; i < ctx.end; ++i) {
        const NativeResolvedOp& o = nativeOps_[i];
        if (g < o.schedTime) continue;  // prologue squash
        if ((g - o.schedTime) / ii >= trips) continue;  // epilogue squash
        issued = true;
        o.fn(o, e);
      }
      if (issued) ++res.issueCycles;
      e.wall += 1 + static_cast<u64>(e.stall);
      res.stallCycles += static_cast<u64>(e.stall);
    }
  };

  u64 steadyBegin = totalLogical;
  u64 steadyEnd = totalLogical;
  if (totalLogical > 0) {
    steadyBegin = std::min(totalLogical, static_cast<u64>(plan.maxSchedTime));
    steadyEnd = std::min(totalLogical,
                         static_cast<u64>(plan.minSchedTime) +
                             static_cast<u64>(trips) * ii);
    if (steadyEnd < steadyBegin) steadyEnd = steadyBegin;
  }

  runGuarded(0, steadyBegin);

  // Cycle-skip warm-up bound: commits pushed by guarded prologue cycles
  // (g < steadyBegin, latency <= kCgaWheelSlots/2) all retire before
  // steadyBegin + kCgaWheelSlots.  Past that, a pending commit can only
  // come from a steady-state cycle, whose landing residue has depth > 0 —
  // so an idle residue provably has an empty slot and no issue, and the
  // loop may jump the cycle counter across the whole idle run.
  const u64 skipSafe = steadyBegin + kCgaWheelSlots;
  u64 g = steadyBegin;
  while (g < steadyEnd) {
    drainSlot(g);
    const NativeContextInfo& ctx = plan.contexts[g % ii];
    if (ctx.skipRun != 0 && g >= skipSafe) {
      const u64 run = std::min<u64>(ctx.skipRun, steadyEnd - g);
      g += run;
      e.wall += run;
      continue;
    }
    e.g = g;
    e.stall = 0;
    for (u32 i = ctx.begin; i < ctx.end; ++i) {
      const NativeResolvedOp& o = nativeOps_[i];
      o.fn(o, e);
    }
    if (ctx.opCount != 0) ++res.issueCycles;
    e.wall += 1 + static_cast<u64>(e.stall);
    res.stallCycles += static_cast<u64>(e.stall);
    ++g;
  }

  runGuarded(steadyEnd, totalLogical);

  // Drain writes still pending past the last logical cycle, in cycle order.
  u64 tail = totalLogical;
  for (u64 c = totalLogical; c < totalLogical + kCgaWheelSlots; ++c) {
    if (e.wheelCount[c & kCgaWheelMask] == 0) continue;
    drainSlot(c);
    tail = c;
  }
  const u64 drainExtra = tail - totalLogical;

  for (const Writeback& wb : k.writebacks)
    crf_.poke(wb.globalReg, localRfs_[wb.fu].peek(wb.localReg));
  const u64 wbCycles = (k.writebacks.size() + 2) / 3;

  // Whole-launch batched statistics: every scheduled op issues exactly
  // `trips` times, so op-derived counters are perIter * trips plus the
  // preload/writeback constants.  Only issue/stall/conflict counts (booked
  // live above) and the wall clock are dynamic.
  const u64 t = trips;
  const NativeIterStats& it = plan.perIter;
  const u64 nPre = k.preloads.size();
  const u64 nWb = k.writebacks.size();

  res.ops = it.ops * t;
  res.routeMoves = it.movs * t;
  res.arrayCycles = totalLogical;
  res.cycles = preCycles + e.wall + drainExtra + wbCycles;

  act_.cgaOps += res.ops;
  act_.cgaRouteMoves += res.routeMoves;
  act_.simdOps += it.simd * t;
  act_.ops16 += it.ops16 * t;
  act_.transports += it.transports * t;
  act_.cdrfCgaAccesses += it.cdrf * t + nPre + nWb;
  act_.l1CgaAccesses += it.l1Accesses * t;
  act_.cgaCycles += res.cycles;
  act_.cgaStallCycles += res.stallCycles;

  ScratchpadStats& l1s = l1_.mutableStats();
  l1s.reads += it.l1Reads * t;
  l1s.writes += it.l1Writes * t;

  RegFileStats& cs = crf_.mutableStats();
  cs.reads += it.crfReads * t + nPre;
  cs.writes += it.crfWrites * t + nWb;

  for (std::size_t fu = 0; fu < static_cast<std::size_t>(kCgaFus); ++fu) {
    RegFileStats& rs = localRfs_[fu].mutableStats();
    rs.reads += it.lrfReads[fu] * t;
    rs.writes += it.lrfWrites[fu] * t;
  }
  for (const Preload& p : k.preloads) ++localRfs_[p.fu].mutableStats().writes;

  return res;
}

}  // namespace adres
