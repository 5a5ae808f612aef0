#include "cga/plan.hpp"

#include <algorithm>

#include "cga/native.hpp"
#include "common/check.hpp"
#include "isa/semantics.hpp"

namespace adres {

KernelPlan buildKernelPlan(const KernelConfig& k, ExecTier tier) {
  ADRES_CHECK(tier == ExecTier::kReference || tier == ExecTier::kNative,
              "unknown exec tier " << static_cast<int>(tier)
                                   << " for kernel '" << k.name << "'");
  k.validate();
  KernelPlan p;
  p.tier = tier;
  p.source = k;
  const std::size_t ii = k.contexts.size();
  p.contexts.resize(ii);
  NativeIterStats& it = p.perIter;

  // Commits landing at each residue per steady-state iteration.  Guarded
  // prologue/epilogue cycles issue subsets of the steady pattern, so these
  // depths bound every cycle of a launch.
  std::vector<u32> depth(ii, 0);

  // Operand-read accounting, mirroring CgaArray::readSrc: kOutput bumps
  // transports (mesh mux traversal), kLocalRf reads the consuming FU's
  // file, kGlobalRf is a CDRF access + central-file read; immediates and
  // kNone are free.
  auto noteRead = [&](const SrcSel& s, std::size_t fu) {
    switch (s.kind) {
      case SrcKind::kOutput: ++it.transports; break;
      case SrcKind::kLocalRf: ++it.lrfReads[fu]; break;
      case SrcKind::kGlobalRf: ++it.cdrf; ++it.crfReads; break;
      default: break;
    }
  };

  u32 minSched = ~0u;
  u32 maxSched = 0;
  for (std::size_t c = 0; c < ii; ++c) {
    NativeContextInfo& ci = p.contexts[c];
    ci.begin = static_cast<u32>(p.ops.size());
    for (int fu = 0; fu < kCgaFus; ++fu) {
      const FuOp& f = k.contexts[c].fu[fu];
      if (f.isNop()) continue;
      NativeOpSpec s;
      s.fn = nativeExecFn(f.op);
      ADRES_CHECK(s.fn != nullptr, "no native body for opcode "
                                       << opInfo(f.op).name << " in kernel '"
                                       << k.name << "'");
      s.fu = static_cast<u8>(fu);
      s.lat = static_cast<u8>(opInfo(f.op).latency);
      ADRES_CHECK(2 * static_cast<u64>(s.lat) <= kCgaWheelSlots,
                  "op latency " << static_cast<int>(s.lat)
                                << " exceeds the commit-wheel bound");
      s.schedTime = f.schedTime;
      s.src1 = f.src1;
      s.src2 = f.src2;
      s.src3 = f.src3;
      s.dst = f.dst;
      s.imm = f.imm;
      s.mergeHigh = f.op == Opcode::LD_IH;
      const PlanOpKind kind = isStore(f.op)  ? PlanOpKind::kStore
                              : isLoad(f.op) ? PlanOpKind::kLoad
                                             : PlanOpKind::kCompute;
      // src1/src3 immediates are the raw control field; only src2 carries
      // the pre-scaled memory immediate.
      if (s.src1.kind == SrcKind::kImm) s.imm1 = fromScalar(f.imm);
      if (s.src2.kind == SrcKind::kImm)
        s.imm2 = kind == PlanOpKind::kCompute
                     ? fromScalar(f.imm)
                     : fromScalar(f.imm << memImmScale(f.op));
      if (s.src3.kind == SrcKind::kImm) s.imm3 = fromScalar(f.imm);

      ++it.ops;
      if (f.op == Opcode::MOV) ++it.movs;
      if (isSimd(f.op)) ++it.simd;
      it.ops16 += static_cast<u64>(ops16PerInstr(f.op));
      noteRead(f.src1, s.fu);
      noteRead(f.src2, s.fu);
      if (kind == PlanOpKind::kStore) {
        noteRead(f.src3, s.fu);
        ++it.l1Writes;
        ++it.l1Accesses;
      } else {
        if (kind == PlanOpKind::kLoad) {
          ++it.l1Reads;
          ++it.l1Accesses;
        }
        // Commit-side accounting: one result transport into the output
        // register, plus the selected RF writes (commitWrite's pattern).
        ++it.transports;
        if (f.dst.toLocalRf) ++it.lrfWrites[s.fu];
        if (f.dst.toGlobalRf) {
          ++it.cdrf;
          ++it.crfWrites;
        }
        ++depth[(c + s.lat) % ii];
      }

      // Per-iteration (kind, latency) class counts for the
      // cycle-attribution profiler.
      auto cls = std::find_if(p.classes.begin(), p.classes.end(),
                              [&](const PlanClassCount& pc) {
                                return pc.kind == kind && pc.lat == s.lat;
                              });
      if (cls == p.classes.end()) {
        p.classes.push_back({kind, s.lat, 1});
      } else {
        ++cls->ops;
      }

      minSched = std::min(minSched, static_cast<u32>(f.schedTime));
      maxSched = std::max(maxSched, static_cast<u32>(f.schedTime));
      p.ops.push_back(s);
    }
    ci.end = static_cast<u32>(p.ops.size());
    ci.opCount = ci.end - ci.begin;
  }
  p.minSchedTime = minSched == ~0u ? 0 : minSched;
  p.maxSchedTime = maxSched;
  std::sort(p.classes.begin(), p.classes.end(),
            [](const PlanClassCount& a, const PlanClassCount& b) {
              return a.kind != b.kind ? a.kind < b.kind : a.lat < b.lat;
            });

  for (u32 d : depth) p.maxCommitDepth = std::max(p.maxCommitDepth, d);

  // No-retire skip runs: a residue is idle iff it issues no op and no
  // commit ever lands on it in steady state.  Consecutive idle residues
  // collapse into one cycle-counter jump.
  std::vector<bool> idle(ii);
  for (std::size_t r = 0; r < ii; ++r)
    idle[r] = p.contexts[r].opCount == 0 && depth[r] == 0;
  for (std::size_t r = 0; r < ii; ++r) {
    if (!idle[r]) continue;
    u32 run = 0;
    while (run < ii && idle[(r + run) % ii]) ++run;
    p.contexts[r].skipRun = run;
  }
  return p;
}

std::shared_ptr<const ProgramPlans> buildProgramPlans(
    const std::vector<KernelConfig>& kernels, ExecTier tier) {
  auto plans = std::make_shared<ProgramPlans>();
  plans->tier = tier;
  plans->kernels.reserve(kernels.size());
  for (const KernelConfig& k : kernels)
    plans->kernels.push_back(
        buildKernelPlan(decodeKernel(encodeKernel(k)), tier));
  return plans;
}

}  // namespace adres
