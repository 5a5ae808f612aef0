// Executable program container: VLIW text, mapped CGA kernels, and initial
// L1 data segments.  Produced by the sched/ toolchain (or hand-written in
// tests), loaded into the processor through the DMA/bus models.
#pragma once

#include <string>
#include <vector>

#include "cga/context.hpp"
#include "isa/instruction.hpp"

namespace adres {

/// Region markers let profiling attribute cycles/ops to named program
/// phases (the simulator's stand-in for PC-range profiling):
/// a NOP in slot 0 with useImm and imm = region id + 1 opens a region,
/// imm = 0 would be a plain nop — see kRegionMarkerNone.
inline constexpr i32 kRegionMarkerNone = 0;

/// Builds the marker bundle that switches profiling to region `id`
/// (id >= 0), or closes the current region (id < 0).
Bundle regionMarker(int id);

/// True if the bundle is a region marker; `id` receives the region
/// (-1 = close).
bool isRegionMarker(const Bundle& b, int& id);

struct DataSegment {
  u32 addr = 0;           ///< L1 byte address
  std::vector<u8> bytes;  ///< initial contents
};

struct Program {
  std::string name;
  std::vector<Bundle> bundles;
  std::vector<KernelConfig> kernels;  ///< indexed by the CGA op's imm
  std::vector<DataSegment> data;
  u32 entry = 0;  ///< bundle index where fetch starts after reset

  /// Static checks: slot legality (branch only slot 0, div slots 0-1,
  /// mem slots 0-2 in VLIW mode), register ranges, branch targets, kernel
  /// ids, no dual writes to one register within a bundle.
  void validate() const;

  /// Named region ids for profiling reports.
  std::vector<std::string> regionNames;
  int regionId(const std::string& n) const;
};

/// Report name of region `id`: `names[id]`, or "region<id>" when `names`
/// has no entry for it.
std::string regionName(const std::vector<std::string>& names, int id);

}  // namespace adres
