// The complete 2x2 MIMO-OFDM receiver as one processor program
// (paper §4): every Table 2 kernel is a CGA launch under its own profiling
// region, glued by real VLIW code (synchronization decisions, atan2,
// phasor generation, tracking, loop control).
//
// The program assumes the packet starts within the first STF period of the
// receive buffers (the platform's front-end triggers capture), runs
// detection at two fixed offsets, synchronizes, estimates and inverts the
// channel, then loops over symbol pairs (the paper's "two symbols are
// processed in parallel" loop merging).
#pragma once

#include <array>
#include <atomic>
#include <vector>

#include "core/processor.hpp"
#include "dsp/modem.hpp"

namespace adres::sdr {

/// L1 byte-address plan of the receiver.
struct ModemLayout {
  u32 rx0 = 0, rx1 = 0;        ///< received waveforms (per antenna)
  u32 comp = 0;                ///< coarse-compensated LTF window
  u32 compMimo0 = 0, compMimo1 = 0;  ///< compensated MIMO-LTF windows
  u32 compData0 = 0, compData1 = 0;  ///< compensated data-symbol pair
  u32 fftWork = 0;             ///< 4 x 256-byte FFT buffers
  u32 interleaved0 = 0, interleaved1 = 0;  ///< used tones, LTF symbols
  u32 hBuf = 0, hBuf2 = 0, midBuf = 0, wBuf = 0;
  u32 rxUsed0 = 0, rxUsed1 = 0;  ///< used tones, data symbols of a pair
  u32 det0 = 0, det1 = 0;        ///< detected streams (2 symbols each)
  u32 gray = 0;                  ///< demod output words
  u32 status = 0;                ///< word0: detection flag; word1: ltfStart
  u32 scratch = 0;
};

namespace detail {
struct ModemPlanCache;  // modem_program.cpp: per-tier pre-decoded plan sets
}

struct ModemOnProcessor {
  Program program;
  ModemLayout layout;
  dsp::ModemConfig config;  ///< the configuration the program was built for
  int numSymbols = 0;       ///< == config.numSymbols; must be even (pairs)
  /// Per-tier plan cache created by buildModemProgram and shared by copies
  /// of this struct; plansFor() is the only accessor.
  std::shared_ptr<detail::ModemPlanCache> planCache;

  /// The pre-decoded kernel plans for `tier`, built lazily on first use and
  /// then shared read-only by every processor that loads this program
  /// (packet-farm workers share one set per tier; Processor::load skips its
  /// own plan build).  Thread-safe.
  std::shared_ptr<const ProgramPlans> plansFor(ExecTier tier) const;
};

/// Builds the receiver program for a modem configuration (QAM-64 only —
/// the mapped demod kernel implements the paper's 100 Mbps+ operating
/// point).  `cfg.numSymbols` must be even: the receiver merges symbol
/// pairs.
ModemOnProcessor buildModemProgram(const dsp::ModemConfig& cfg);

/// Per-run knobs for runModemOnProcessor, replacing its former hard-coded
/// defaults.  The options are read once at call time; the referenced trace
/// sink must outlive the run.
///
/// `progressCycles`/`cancel` are the supervision hooks (obs::WorkerWatchdog):
/// when either is set the run is sliced into `progressIntervalCycles`-sized
/// budget chunks — bit- and cycle-exact with an unsliced run, since run()
/// resumes from held state — and between slices the processor's cycle count
/// is published to `progressCycles` (a heartbeat another thread may read)
/// and `cancel` is polled (a non-zero value aborts with
/// StopReason::kCancelled).  Both referents must outlive the run.
struct RxRunOptions {
  u64 maxCycles = 200'000'000ull;  ///< simulated-cycle budget
  /// How kernel launches execute (DESIGN.md §14): the tier, plus an
  /// optional pre-built plan set.  When `exec.plans` is unset the modem's
  /// per-tier shared cache supplies it.  All tiers are bit- and cycle-exact;
  /// they differ only in host speed.
  ExecPolicy exec;
  TraceSink* trace = nullptr;      ///< attached to the processor when set
  std::atomic<u64>* progressCycles = nullptr;  ///< heartbeat: cycles so far
  const std::atomic<u32>* cancel = nullptr;    ///< non-zero aborts the run
  u64 progressIntervalCycles = 32'768;         ///< slice size when supervised
  bool profile = false;  ///< per-launch cycle-attribution (kernelProfiles())
  /// Region-span log for per-packet span trees; entries are appended for
  /// every closed region.  Unlike `trace`, both observability hooks keep the
  /// CGA steady-state fast path engaged.
  std::vector<RegionSpan>* regionLog = nullptr;
  /// Test-only fault injection: when non-zero, one deterministically chosen
  /// payload bit (SplitMix64 of the seed, modulo the bit count) is flipped
  /// AFTER the gray-word decode — the simulated hardware is untouched, only
  /// the returned bits lie.  This is the planted divergence the sentinel
  /// tests (and postmortem replay) must catch; 0 in production.
  u64 faultInjectBitFlipSeed = 0;
};

struct ProcessorRxResult {
  bool detected = false;
  u32 ltfStart = 0;                 ///< sample index chosen by fine timing
  std::vector<u8> bits;             ///< decoded payload (from gray words)
  u64 cycles = 0;
  double elapsedUs = 0.0;
  StopReason stop = StopReason::kHalt;  ///< why the run ended

  /// True when the program ran to its halt; payload fields are only
  /// meaningful in that case.
  bool halted() const { return stop == StopReason::kHalt; }
};

/// Loads the rx waveforms into L1 (DMA), runs the program, decodes the
/// gray output words into payload bits.  On a non-halt stop (budget
/// exhausted, external stall) the result carries the stop reason and
/// cycle counts with `detected == false` and empty bits.
ProcessorRxResult runModemOnProcessor(
    Processor& proc, const ModemOnProcessor& m,
    const std::array<std::vector<cint16>, 2>& rx,
    const RxRunOptions& opts = {});

/// Allocation-free variant: decodes into `out`, reusing its bits buffer's
/// capacity (every field is overwritten).  With warm reload armed in
/// `opts.exec` and sample buffers DMA'd straight from `rx`, a steady-state
/// decode performs no heap allocation.
void runModemOnProcessor(Processor& proc, const ModemOnProcessor& m,
                         const std::array<std::vector<cint16>, 2>& rx,
                         const RxRunOptions& opts, ProcessorRxResult& out);

}  // namespace adres::sdr
