#include "cga/array.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "isa/semantics.hpp"

namespace adres {

void CgaArray::clearState() {
  for (auto& rf : localRfs_) rf.clear();
  outRegs_.fill(0);
}

RegFileStats CgaArray::localRfTotals() const {
  RegFileStats t;
  for (const auto& rf : localRfs_) {
    t.reads += rf.stats().reads;
    t.writes += rf.stats().writes;
  }
  return t;
}

Word CgaArray::currentDst(int fu, const DstSel& dst) const {
  if (dst.toLocalRf) return localRfs_[static_cast<std::size_t>(fu)].peek(dst.localAddr);
  if (dst.toGlobalRf) return crf_.peek(dst.globalAddr);
  return outRegs_[static_cast<std::size_t>(fu)];
}

void CgaArray::commitWrite(const PendingWrite& pw) {
  Word v = pw.value;
  if (pw.mergeHigh) v |= currentDst(pw.fu, pw.dst) & 0xFFFFFFFFull;
  outRegs_[pw.fu] = v;
  ++act_.transports;  // result transport into the output register
  if (pw.dst.toLocalRf) localRfs_[pw.fu].write(pw.dst.localAddr, v);
  if (pw.dst.toGlobalRf) {
    ++act_.cdrfCgaAccesses;
    crf_.write(pw.dst.globalAddr, v);
  }
}

Word CgaArray::readSrc(int fu, const SrcSel& s, i32 imm) {
  switch (s.kind) {
    case SrcKind::kNone:
      return 0;
    case SrcKind::kOutput:
      ++act_.transports;  // mesh mux traversal
      return outRegs_[s.index];
    case SrcKind::kLocalRf:
      return localRfs_[static_cast<std::size_t>(fu)].read(s.index);
    case SrcKind::kGlobalRf:
      ++act_.cdrfCgaAccesses;
      return crf_.read(s.index);
    case SrcKind::kImm:
      return fromScalar(imm);
  }
  return 0;
}

CgaRunResult CgaArray::run(const KernelPlan& plan, u32 trips, u64 traceBase,
                           u32 kernelId) {
  switch (plan.tier) {
    case ExecTier::kReference:
      return runReferenceLoop(plan.source, trips, traceBase, kernelId);
    case ExecTier::kNative:
      // Tracing needs per-op event emission; the reference loop produces
      // the identical results and counters plus the event stream.
      if (trace_)
        return runReferenceLoop(plan.source, trips, traceBase, kernelId);
      return runNative(plan, trips, traceBase);
  }
  ADRES_CHECK(false, "unknown exec tier "
                         << static_cast<int>(plan.tier) << " for kernel '"
                         << plan.source.name << "'");
  return {};
}

CgaRunResult CgaArray::runReferenceLoop(const KernelConfig& k, u32 trips,
                                        u64 traceBase, u32 kernelId) {
  k.validate();
  CgaRunResult res;
  std::array<u32, kCgaFus> fuOps = {};  // per-FU trace occupancy
  // Each kernel launch runs on its own local timeline; clear the bank-port
  // bookings left by previous launches or VLIW-mode accesses.
  l1_.arbiter().reset();

  // Live-in preloads: DRESC's loop-setup copies, 3 per cycle through the
  // central file's read ports.
  for (const Preload& p : k.preloads) {
    ++act_.cdrfCgaAccesses;
    localRfs_[p.fu].write(p.localReg, crf_.read(p.globalReg));
  }
  const u64 preCycles = (k.preloads.size() + 2) / 3;

  // Main modulo-scheduled execution.
  const u64 totalLogical =
      trips == 0 ? 0
                 : (static_cast<u64>(trips) - 1) * static_cast<u64>(k.ii) +
                       static_cast<u64>(k.schedLength);
  std::vector<PendingWrite> pending;
  u64 wall = 0;  // wall cycles elapsed in the array (logical + stalls)

  for (u64 g = 0; g < totalLogical; ++g) {
    // Commit results due at this logical cycle (before reads); commit in
    // cycle order so LD_I / LD_IH halves merge deterministically.
    std::sort(pending.begin(), pending.end(),
              [](const PendingWrite& x, const PendingWrite& y) {
                return x.commitCycle < y.commitCycle;
              });
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->commitCycle <= g) {
        commitWrite(*it);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }

    cfg_.noteContextFetch();  // the ultra-wide configuration word read
    const Context& ctx = k.contexts[static_cast<std::size_t>(g % static_cast<u64>(k.ii))];
    int stallThisCycle = 0;
    bool issued = false;

    for (int fu = 0; fu < kCgaFus; ++fu) {
      const FuOp& f = ctx.fu[fu];
      if (f.isNop()) continue;
      if (g < f.schedTime) continue;  // prologue squash
      const u64 iter = (g - f.schedTime) / static_cast<u64>(k.ii);
      if (iter >= trips) continue;  // epilogue squash

      issued = true;
      ++res.ops;
      ++act_.cgaOps;
      if (trace_) ++fuOps[static_cast<std::size_t>(fu)];
      if (f.op == Opcode::MOV) {
        ++res.routeMoves;
        ++act_.cgaRouteMoves;
      }
      if (isSimd(f.op)) ++act_.simdOps;
      act_.ops16 += static_cast<u64>(ops16PerInstr(f.op));

      const int lat = opInfo(f.op).latency;

      if (isStore(f.op)) {
        const Word base = readSrc(fu, f.src1, f.imm);
        const Word off = f.src2.kind == SrcKind::kImm
                             ? fromScalar(f.imm << memImmScale(f.op))
                             : readSrc(fu, f.src2, f.imm);
        const Word data = readSrc(fu, f.src3, f.imm);
        const u32 addr = lo32u(base) + lo32u(off);
        ++act_.l1CgaAccesses;
        stallThisCycle = std::max(
            stallThisCycle, l1_.requestPort(traceBase + wall, addr));
        const u32 v = storeData(f.op, data);
        switch (memAccessBytes(f.op)) {
          case 1: l1_.write8(addr, v); break;
          case 2: l1_.write16(addr, v); break;
          default: l1_.write32(addr, v); break;
        }
        continue;
      }

      if (isLoad(f.op)) {
        const Word base = readSrc(fu, f.src1, f.imm);
        const Word off = f.src2.kind == SrcKind::kImm
                             ? fromScalar(f.imm << memImmScale(f.op))
                             : readSrc(fu, f.src2, f.imm);
        const u32 addr = lo32u(base) + lo32u(off);
        ++act_.l1CgaAccesses;
        stallThisCycle = std::max(
            stallThisCycle, l1_.requestPort(traceBase + wall, addr));
        u32 raw = 0;
        switch (memAccessBytes(f.op)) {
          case 1: raw = l1_.read8(addr); break;
          case 2: raw = l1_.read16(addr); break;
          default: raw = l1_.read32(addr); break;
        }
        PendingWrite pw;
        pw.commitCycle = g + static_cast<u64>(lat);
        pw.fu = static_cast<u8>(fu);
        pw.dst = f.dst;
        if (f.op == Opcode::LD_IH) {
          pw.value = static_cast<u64>(raw) << 32;
          pw.mergeHigh = true;  // low half merged at commit
        } else {
          pw.value = applyLoadResult(f.op, 0, raw);
        }
        pending.push_back(pw);
        continue;
      }

      // Compute op.
      const Word a = readSrc(fu, f.src1, f.imm);
      const Word b = f.src2.kind == SrcKind::kImm ? fromScalar(f.imm)
                                                  : readSrc(fu, f.src2, f.imm);
      const Word v = evalOp(f.op, a, b, f.imm);
      PendingWrite pw;
      pw.commitCycle = g + static_cast<u64>(lat);
      pw.fu = static_cast<u8>(fu);
      pw.dst = f.dst;
      pw.value = v;
      pending.push_back(pw);
    }

    if (issued) ++res.issueCycles;
    if (stallThisCycle > 0 && trace_)
      trace_->event({traceBase + wall, static_cast<u64>(stallThisCycle),
                     TraceEventKind::kCgaStall, 0,
                     static_cast<u32>(StallCause::kL1Contention), 0});
    wall += 1 + static_cast<u64>(stallThisCycle);
    res.stallCycles += static_cast<u64>(stallThisCycle);
  }

  // Drain any writes still pending past the last logical cycle (schedLength
  // already bounds them, but be safe for latency tails).
  std::sort(pending.begin(), pending.end(),
            [](const PendingWrite& x, const PendingWrite& y) {
              return x.commitCycle < y.commitCycle;
            });
  u64 tail = totalLogical;
  for (const PendingWrite& pw : pending) {
    tail = std::max(tail, pw.commitCycle);
    commitWrite(pw);
  }
  const u64 drainExtra = tail - totalLogical;

  // Live-out writebacks through the central file's write ports.
  for (const Writeback& wb : k.writebacks) {
    ++act_.cdrfCgaAccesses;
    crf_.write(wb.globalReg, localRfs_[wb.fu].peek(wb.localReg));
  }
  const u64 wbCycles = (k.writebacks.size() + 2) / 3;

  res.arrayCycles = totalLogical;
  res.cycles = preCycles + wall + drainExtra + wbCycles;
  act_.cgaCycles += res.cycles;
  act_.cgaStallCycles += res.stallCycles;
  if (trace_) {
    // One occupancy span per active FU: the kernel renders as a per-FU
    // heatmap on the cga.fuNN tracks.
    for (int fu = 0; fu < kCgaFus; ++fu) {
      if (fuOps[static_cast<std::size_t>(fu)] == 0) continue;
      trace_->event({traceBase, res.cycles, TraceEventKind::kFuActive,
                     static_cast<u8>(fu), kernelId,
                     fuOps[static_cast<std::size_t>(fu)]});
    }
  }
  return res;
}

}  // namespace adres
