// Reproduces the §3 headline: 16 FUs x 4-way SIMD x 400 MHz = 25.6 GOPS
// (16-bit).  A hand-packed configuration keeps all 16 FUs issuing SIMD
// ops every cycle; sustained GOPS is measured from the activity counters.
// google-benchmark times the simulator itself as a side report.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "cga/array.hpp"
#include "common/activity.hpp"
#include "dsp/lanes.hpp"

using namespace adres;

namespace {

/// All 16 FUs run C4ADD on their own local registers every cycle.
KernelConfig saturatingKernel() {
  KernelConfig k;
  k.name = "gops_saturate";
  k.ii = 1;
  k.schedLength = 1;
  k.contexts.resize(1);
  for (int fu = 0; fu < kCgaFus; ++fu) {
    FuOp& f = k.contexts[0].fu[fu];
    f.op = Opcode::C4ADD;
    f.src1 = SrcSel::localRf(0);
    f.src2 = SrcSel::localRf(1);
    f.dst.toLocalRf = true;
    f.dst.localAddr = 0;
  }
  return k;
}

struct Fabric {
  CentralRegFile crf;
  Scratchpad l1;
  ConfigMemory cfg;
  ActivityCounters act;
  CgaArray array{crf, l1, cfg, act};
};

double measureGops(u32 trips) {
  Fabric f;
  const KernelPlan plan = buildKernelPlan(saturatingKernel(), defaultExecTier());
  const CgaRunResult r = f.array.run(plan, trips);
  // ops16 16-bit operations over r.cycles at 400 MHz.
  const double opsPerCycle =
      static_cast<double>(f.act.ops16) / static_cast<double>(r.cycles);
  return opsPerCycle * 400e6 / 1e9;
}

void BM_SaturatedArray(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(measureGops(1000));
  }
}
BENCHMARK(BM_SaturatedArray);

}  // namespace

int main(int argc, char** argv) {
  printf("=== Peak arithmetic throughput (paper SS3: 25.6 GOPS 16-bit) ===\n");
  for (u32 trips : {100u, 1000u, 10000u}) {
    printf("  %6u iterations: sustained %.2f GOPS (peak 25.6)\n", trips,
           measureGops(trips));
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
