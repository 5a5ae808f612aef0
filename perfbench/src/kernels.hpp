// The 17 Table 2 kernels as the benchmark measures them: DFG builders,
// standalone launch environments for timing CgaArray::run on prebuilt
// plans, and the paper's Table 2 reference cycles.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cga/array.hpp"
#include "dsp/qam.hpp"
#include "sched/dfg.hpp"

namespace perfbench {

/// A private CGA with its register files and memories.
struct Fabric {
  adres::CentralRegFile crf;
  adres::Scratchpad l1;
  adres::ConfigMemory cfg;
  adres::ActivityCounters act;
  adres::CgaArray array{crf, l1, cfg, act};
};

/// Clears the fabric and loads a deterministic L1 image: a pseudo-random
/// data pattern plus the modem's gather and twiddle tables at fixed
/// addresses, so every kernel's loads and stores stay in bounds.
void prepareFabric(Fabric& f);

struct KernelSpec {
  std::string name;         ///< metric name: cga.<name>.*, sched.<name>.*
  std::string programName;  ///< KernelConfig::name in the mapped program
  std::function<adres::KernelDfg()> build;
  adres::u32 trips = 0;     ///< canonical trip count of one launch
  /// Pokes the live-in registers the modem glue would set.
  std::function<void(Fabric&)> setup;
};

/// The kernels in the mapped program's kernel-table order.  The demod
/// variant follows the modulation (QAM-64 or QAM-16).
std::vector<KernelSpec> tableTwoKernels(adres::dsp::Modulation mod);

/// Paper Table 2 (DATE 2008): cycles of a row group per packet are
/// preamble + perPair * (symbols / 2).  `kernels` lists the benchmark
/// kernels whose simulated cycles the row covers.
struct PaperRow {
  const char* row;
  std::vector<std::string> kernels;
  int preambleCycles;
  int perPairCycles;
};
const std::vector<PaperRow>& paperRows();

/// The paper's packet totals: 6105 preamble cycles + 1531 per symbol pair.
inline constexpr int kPaperPreambleCycles = 6105;
inline constexpr int kPaperPairCycles = 1531;
inline double paperPacketCycles(int numSymbols) {
  return kPaperPreambleCycles + kPaperPairCycles * (numSymbols / 2);
}

}  // namespace perfbench
