// Shared test helpers: golden-memory adapter and the schedule-vs-interpret
// equivalence harness used by scheduler and SDR kernel tests.
#pragma once

#include <gtest/gtest.h>

#include "cga/array.hpp"
#include "common/activity.hpp"
#include "sched/dfg.hpp"
#include "sched/modulo.hpp"

namespace adres {
namespace testutil {

/// Launches `k` for `trips` iterations through a plan built for this one
/// launch at the default tier (ADRES_EXEC_TIER sweeps it).
inline CgaRunResult runKernel(CgaArray& array, const KernelConfig& k,
                              u32 trips) {
  return array.run(buildKernelPlan(k, defaultExecTier()), trips);
}

/// ByteMemory over a Scratchpad, for the reference interpreter.
class ScratchpadMem : public ByteMemory {
 public:
  explicit ScratchpadMem(Scratchpad& l1) : l1_(l1) {}
  u32 load(u32 addr, int bytes) override {
    switch (bytes) {
      case 1: return l1_.read8(addr);
      case 2: return l1_.read16(addr);
      default: return l1_.read32(addr);
    }
  }
  void store(u32 addr, int bytes, u32 value) override {
    switch (bytes) {
      case 1: l1_.write8(addr, value); break;
      case 2: l1_.write16(addr, value); break;
      default: l1_.write32(addr, value); break;
    }
  }

 private:
  Scratchpad& l1_;
};

struct KernelRun {
  ScheduledKernel sk;
  CgaRunResult runResult;
};

/// Schedules `g`, executes it on a fresh CGA fabric against `l1`, and
/// checks CDRF live-outs and all touched memory against the reference
/// interpreter run on an identical memory image.  Returns scheduling and
/// run statistics for further assertions.
inline KernelRun checkKernelAgainstReference(
    const KernelDfg& g, u32 trips,
    const std::vector<std::pair<int, Word>>& liveIns,
    const std::vector<std::pair<u32, std::vector<u8>>>& memInit,
    u32 compareBytes) {
  // Scheduled execution.
  CentralRegFile crf;
  Scratchpad l1;
  ConfigMemory cfg;
  ActivityCounters act;
  CgaArray array(crf, l1, cfg, act);
  for (const auto& [addr, bytes] : memInit) l1.loadBytes(addr, bytes);
  for (const auto& [reg, v] : liveIns) crf.poke(reg, v);

  KernelRun out;
  out.sk = scheduleKernel(g);
  // Exercise the config round trip as the real load path does.
  const KernelConfig cfgDecoded = decodeKernel(encodeKernel(out.sk.config));
  out.runResult = runKernel(array, cfgDecoded, trips);

  // Reference execution.
  Scratchpad goldenL1;
  for (const auto& [addr, bytes] : memInit) goldenL1.loadBytes(addr, bytes);
  ScratchpadMem mem(goldenL1);
  const RefResult ref = interpretKernel(g, trips, liveIns, mem);

  for (const auto& [reg, v] : ref.liveOutValues) {
    EXPECT_EQ(crf.peek(reg), v)
        << "live-out CDRF r" << reg << " mismatch (kernel " << g.name
        << ", II=" << out.sk.ii << ")";
  }
  for (u32 a = 0; a < compareBytes; a += 4) {
    EXPECT_EQ(l1.read32(a), goldenL1.read32(a))
        << "memory mismatch at 0x" << std::hex << a << " (kernel " << g.name
        << ")";
  }
  return out;
}

}  // namespace testutil
}  // namespace adres
