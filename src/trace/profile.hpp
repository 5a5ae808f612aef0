// Cycle-attribution profiler output (DESIGN.md §13).
//
// A ProfileSummary is the id-keyed sum of one or more Processors' own
// region profiles and per-launch KernelLaunchProfile maps (one processor
// per decoded packet, all running one program): every booked cycle is
// attributed to issue vs idle vs stall vs overhead, and op totals are kept
// per (dispatch kind, latency) class.  Names are resolved only when a
// report is written, folding ids that share a name (the five radix-2
// launches are all `fft_stage`).  Exporters: a versioned
// `adres.profile.v1` JSON document and a flamegraph-compatible
// folded-stacks file (`modem;<region>;<kernel>;issue 1234` lines), plus a
// ranked top-cycle-sink list for reports.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/processor.hpp"

namespace adres::trace {

/// Stable class label for a (PlanOpKind, latency) pair, e.g. "compute.lat1",
/// "load.lat3", "store.lat1".
std::string planClassName(u8 kind, u8 lat);

/// One ranked cycle sink: a (region, kernel) pair or a region's VLIW-mode
/// residue ("<region> [vliw]").
struct CycleSink {
  std::string name;
  u64 cycles = 0;
  double share = 0.0;  ///< fraction of totalCycles
};

struct ProfileSummary {
  u64 runs = 0;         ///< processors folded in (packets decoded)
  u64 totalCycles = 0;  ///< summed core cycles across folded runs

  /// Sums of Processor::profiles() and kernelProfiles(), by the
  /// processor's own keys.
  std::map<int, RegionProfile> regions;
  std::map<std::pair<int, u32>, KernelLaunchProfile> kernels;

  /// Report names, taken from the first processor folded in: its program's
  /// region names and its decoded plans' kernel names (`region<id>` and
  /// `kernel<id>` when a name is missing).
  std::vector<std::string> regionNames;
  std::vector<std::string> kernelNames;

  bool empty() const { return runs == 0; }

  /// Adds one processor's region and kernel launch profiles.  Call after a
  /// run, before the next load resets stats; every processor added must
  /// run the program of the first.
  void addProcessor(const Processor& proc);

  /// Top `n` cycle sinks, descending.
  std::vector<CycleSink> topSinks(std::size_t n) const;

  /// Versioned JSON document: {"schema": "adres.profile.v1", ...}.
  void writeJson(std::ostream& os) const;

  /// Flamegraph folded stacks: `modem;<region>;<kernel>;<component> cycles`
  /// for CGA launches and `modem;<region>;vliw cycles` for VLIW residues.
  void writeFolded(std::ostream& os) const;
};

}  // namespace adres::trace
