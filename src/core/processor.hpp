// The hybrid CGA-SIMD processor (paper Figs 1-2).
//
// Harvard architecture: VLIW bundles fetched through the direct-mapped I$,
// data in the 4-bank L1 scratchpad.  Three predicated VLIW FUs share the
// central register files with the 16-FU CGA; the `cga` instruction switches
// to kernel mode (array executes a mapped loop), `halt` drops to sleep until
// `resume`.  The external-stall input, the AHB slave port (L1 + config +
// special registers) and the debug data interface are modelled as in §2.A.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bus/ahb.hpp"
#include "cga/array.hpp"
#include "common/activity.hpp"
#include "core/program.hpp"
#include "mem/dma.hpp"
#include "mem/icache.hpp"
#include "trace/trace.hpp"

namespace adres {

inline constexpr double kClockMHz = 400.0;  ///< worst-case achieved clock
inline constexpr double kCyclePeriodUs = 1.0 / kClockMHz;

/// Why a run() call returned.
enum class StopReason {
  kHalt,           ///< executed `halt`, now sleeping (resume() to continue)
  kMaxCycles,      ///< cycle budget exhausted
  kExternalStall,  ///< external stall asserted
  kOffEnd,         ///< fetched past the last bundle (missing halt)
};

/// Stable lower_snake label for a stop reason (health events, metrics).
const char* stopReasonName(StopReason r);

/// Sticky exception flags (special register sreg::kException).
struct ExceptionFlags {
  bool divByZero = false;
  u32 word() const { return divByZero ? 1u : 0u; }
};

/// Aggregated per-region profile (between region markers).
struct RegionProfile {
  u64 cycles = 0;
  u64 vliwCycles = 0;
  u64 cgaCycles = 0;
  u64 ops = 0;
  u64 vliwOps = 0;
  u64 cgaOps = 0;
  u64 entries = 0;  ///< times the region was entered

  RegionProfile& operator+=(const RegionProfile& o) {
    cycles += o.cycles;
    vliwCycles += o.vliwCycles;
    cgaCycles += o.cgaCycles;
    ops += o.ops;
    vliwOps += o.vliwOps;
    cgaOps += o.cgaOps;
    entries += o.entries;
    return *this;
  }
  bool operator==(const RegionProfile&) const = default;

  double ipc() const { return cycles ? static_cast<double>(ops) / static_cast<double>(cycles) : 0.0; }
  /// Dominant mode string as in Table 2 ("CGA", "VLIW", "mixed").
  std::string mode() const;
};

/// Cycle attribution of every CGA launch of one (region, kernel) pair,
/// accumulated when kernel profiling is enabled.  All five cycle components
/// partition the booked kernel cost exactly:
///   cycles == issueCycles + idleCycles + stallCycles + overheadCycles.
struct KernelLaunchProfile {
  u64 launches = 0;
  u64 trips = 0;           ///< summed trip counts
  u64 cycles = 0;          ///< booked cost incl. the two mode switches
  u64 issueCycles = 0;     ///< logical cycles with at least one op issued
  u64 idleCycles = 0;      ///< logical cycles with every op squashed
  u64 stallCycles = 0;     ///< L1 bank-contention stalls
  u64 overheadCycles = 0;  ///< preloads + writebacks + drain + mode switches
  u64 ops = 0;
  u64 routeMoves = 0;
  /// Ops per (PlanOpKind, latency) dispatch class, from the plan's
  /// per-iteration class counts times the launch trip count.
  std::map<std::pair<u8, u8>, u64> opsByClass;

  KernelLaunchProfile& operator+=(const KernelLaunchProfile& o) {
    launches += o.launches;
    trips += o.trips;
    cycles += o.cycles;
    issueCycles += o.issueCycles;
    idleCycles += o.idleCycles;
    stallCycles += o.stallCycles;
    overheadCycles += o.overheadCycles;
    ops += o.ops;
    routeMoves += o.routeMoves;
    for (const auto& [cls, n] : o.opsByClass) opsByClass[cls] += n;
    return *this;
  }
  bool operator==(const KernelLaunchProfile&) const = default;
};

class Processor {
 public:
  Processor();

  // -- Program load ----------------------------------------------------------

  /// Loads a program: validates it, encodes+decodes the text (exercising the
  /// binary path), places data segments in L1 via DMA, encodes kernels into
  /// configuration memory via DMA, resets the pipeline.  `policy` selects
  /// how kernel launches execute (DESIGN.md §14): its tier picks the loop
  /// the plans run on, and its optional pre-built plan set is adopted when
  /// supplied (the packet farm shares one read-only set across workers; it
  /// must have been built at the policy's tier).  When no plans are
  /// supplied they are built here from the loaded kernels.
  void load(const Program& prog, ExecPolicy policy = {});

  // -- Execution -------------------------------------------------------------

  /// Runs until halt / stall / budget exhaustion.
  StopReason run(u64 maxCycles = ~0ull);

  /// Wakes the core from the sleep state (the `resume` input signal).
  void resume();

  /// Asserts/deasserts the external stall input; when asserted, run()
  /// returns immediately and the state is held.
  void setExternalStall(bool s) { externalStall_ = s; }
  bool sleeping() const { return sleeping_; }

  // -- Observation ------------------------------------------------------------

  u64 cycles() const { return cycle_; }
  double elapsedUs() const { return static_cast<double>(cycle_) * kCyclePeriodUs; }
  u32 pc() const { return pc_; }

  CentralRegFile& regs() { return crf_; }
  const CentralRegFile& regs() const { return crf_; }
  Scratchpad& l1() { return l1_; }
  const Scratchpad& l1() const { return l1_; }
  ConfigMemory& configMem() { return cfgMem_; }
  const ConfigMemory& configMem() const { return cfgMem_; }
  ICache& icache() { return icache_; }
  const ICache& icache() const { return icache_; }
  CgaArray& cga() { return cga_; }
  const CgaArray& cga() const { return cga_; }
  DmaEngine& dma() { return dma_; }
  const DmaEngine& dma() const { return dma_; }
  const ActivityCounters& activity() const { return act_; }
  ActivityCounters& activity() { return act_; }
  const ExceptionFlags& exceptions() const { return exc_; }

  const std::map<int, RegionProfile>& profiles() const { return profiles_; }
  /// Per-(region id, kernel id) launch attribution; empty unless
  /// setKernelProfiling(true).  Cleared by resetStats().
  const std::map<std::pair<int, u32>, KernelLaunchProfile>& kernelProfiles()
      const {
    return kernelProfiles_;
  }
  /// Enables the per-launch cycle-attribution profiler (one map update per
  /// CGA launch; the array hot loop is untouched).
  void setKernelProfiling(bool on) { kernelProfiling_ = on; }
  const Program& program() const { return prog_; }
  /// The decoded kernel plans the sequencer launches from.
  const std::shared_ptr<const ProgramPlans>& kernelPlans() const {
    return plans_;
  }

  /// Wires the slave memory map (L1, config memory, special registers)
  /// onto an AHB bus instance.
  void attachBus(AhbSlave& bus);

  /// Clears cycle counters, activity and profiles, keeping memory and
  /// register state (used between measured phases).
  void resetStats();

  /// Attaches (or detaches, with nullptr) a trace sink to the core and every
  /// sub-component (CGA array, L1, I$, DMA).  A null sink costs one untaken
  /// branch per event site.
  void setTrace(TraceSink* t);
  TraceSink* trace() const { return trace_; }

 private:
  struct PendingWrite {
    u64 commitCycle = 0;
    bool toPred = false;
    u8 reg = 0;
    Word value = 0;
    bool mergeHigh = false;
  };

  void commitDue(u64 upTo);
  void drainPipeline();
  u64 operandReadyCycle(const Instr& in) const;
  void switchRegion(int id);

  void wheelPush(const PendingWrite& pw);
  void wheelClear();
  void wheelGrow(u64 needSlots);

  Program prog_;
  std::shared_ptr<const ProgramPlans> plans_;
  std::vector<u8> textImage_;

  CentralRegFile crf_;
  Scratchpad l1_;
  ICache icache_;
  ConfigMemory cfgMem_;
  ActivityCounters act_;
  CgaArray cga_;
  DmaEngine dma_;
  ExceptionFlags exc_;

  u64 cycle_ = 0;
  u32 pc_ = 0;
  bool sleeping_ = false;
  bool externalStall_ = false;
  bool ahbPriority_ = false;
  u32 debugAddr_ = 0;

  /// VLIW commit wheel: slot (cycle & mask) holds the register writes due
  /// at that cycle, in issue order (the deterministic order of the former
  /// sorted pending queue).  `wheelBase_` is the first uncommitted cycle;
  /// commitDue advances it.  Load bank-conflict penalties stretch commit
  /// distances, so the wheel grows (rarely) instead of capping them.
  std::vector<std::vector<PendingWrite>> wheel_ =
      std::vector<std::vector<PendingWrite>>(64);
  u64 wheelBase_ = 0;
  u64 wheelCount_ = 0;
  std::array<u64, kCdrfRegs> regReady_ = {};
  std::array<u64, kCprfRegs> predReady_ = {};
  std::array<u64, kVliwSlots> divBusyUntil_ = {};

  /// Returns the profile slot for a region, recycling extracted map nodes
  /// (profileNodePool_) so steady-state re-entry allocates nothing.
  RegionProfile& regionProfile(int id);

  /// The architectural/pipeline reset shared by cold and warm loads.
  void resetLoadedState();

  std::map<int, RegionProfile> profiles_;
  /// Nodes extracted (not freed) by resetStats(): every decode of the same
  /// program revisits the same region ids, so recycling the nodes makes the
  /// per-packet stats reset allocation-free.
  std::vector<std::map<int, RegionProfile>::node_type> profileNodePool_;
  /// Warm-reload identity of the last cold load (ExecPolicy::warmReload).
  const Program* warmProg_ = nullptr;
  std::shared_ptr<const ProgramPlans> warmPlans_;
  std::vector<std::vector<u8>> warmKernelImages_;  ///< encoded per kernel
  std::vector<u32> warmKernelOffsets_;             ///< config-mem placement
  std::map<std::pair<int, u32>, KernelLaunchProfile> kernelProfiles_;
  bool kernelProfiling_ = false;
  int currentRegion_ = -1;
  u64 regionStartCycle_ = 0;
  ActivityCounters regionStartAct_;
  TraceSink* trace_ = nullptr;
};

}  // namespace adres
