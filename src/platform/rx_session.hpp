// RxSession: a reusable receive context — one Processor plus the modem
// program for its ModemConfig, built and mapped ONCE (the DRESC-style
// kernel scheduling in buildModemProgram dominates setup cost) and shared
// through a process-wide cache keyed by the configuration.  It is the one
// owner of a Processor and resident program in the platform: farm workers,
// the sentinel's shadow decoder and postmortem replay all decode through a
// session.  The constructor pays the processor's one cold program load, so
// every decode() only pays the warm reload, waveform DMA, execution and
// result decode, which is what a deployed platform re-running the resident
// program would do.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "obs/integrity.hpp"
#include "sdr/modem_program.hpp"
#include "trace/counters.hpp"
#include "trace/profile.hpp"

namespace adres::platform {

/// Returns the shared mapped modem program for `cfg`, building it on the
/// first request for that configuration.  Thread-safe; identical configs
/// always yield the same object.
std::shared_ptr<const sdr::ModemOnProcessor> modemProgramFor(
    const dsp::ModemConfig& cfg);

/// Drops every cached program (test hook; outstanding shared_ptrs stay
/// valid).
void clearModemProgramCache();

/// Counter totals accumulated across the packets a session decoded.
/// Processor stats reset on every program load, so the session sums each
/// packet's counter block and region profiles; FarmStats merges these
/// across workers.
struct SessionStats {
  u64 packets = 0;
  trace::CounterBlock counters;
  /// Per-region totals keyed by region id (names: the program's
  /// regionNames, resolved only when a dump is written).
  std::map<int, RegionProfile> regions;
  /// Cycle-attribution summary; populated only when the session's run
  /// options enable kernel profiling.
  trace::ProfileSummary profile;

  void merge(const SessionStats& other);
};

class RxSession {
 public:
  /// Fetches (or builds) the program for `cfg` and loads it: the session's
  /// one cold program load, paid before any decode.  `opts.maxCycles` is the
  /// budget decode() runs under.  `opts.trace` is not used: a session
  /// decodes on the fast loop, and a trace of any recorded decode is taken
  /// by re-running it (runModemOnProcessor with a sink).
  explicit RxSession(const dsp::ModemConfig& cfg, sdr::RxRunOptions opts = {});

  /// Decodes one packet with the resident program under the session budget.
  sdr::ProcessorRxResult decode(const std::array<std::vector<cint16>, 2>& rx);

  /// Allocation-free variant: decodes into `out`, reusing its capacity,
  /// under exactly `maxCycles` simulated cycles.  Combined with the warm
  /// program reload and the fixed-size stats fold, a steady-state call
  /// performs no heap allocation (tools/alloc_gate asserts this) — the
  /// packet-farm hot path.
  void decodeInto(const std::array<std::vector<cint16>, 2>& rx,
                  sdr::ProcessorRxResult& out, u64 maxCycles);

  /// Summarizes the decode that just finished (`res` is its result) for the
  /// sentinel's comparison and for postmortem bundles: result metadata,
  /// decoded bits, cycles, total ops and the per-region counter partition.
  obs::DecodeSummary summarize(const sdr::ProcessorRxResult& res) const;

  const dsp::ModemConfig& config() const { return modem_->config; }
  const sdr::ModemOnProcessor& modem() const { return *modem_; }
  const Processor& processor() const { return proc_; }
  /// Session totals.
  const SessionStats& stats() const { return stats_; }

 private:
  std::shared_ptr<const sdr::ModemOnProcessor> modem_;
  /// The run options of the decode in flight: decodeInto() sets its budget.
  sdr::RxRunOptions opts_;
  u64 budget_;  ///< decode()'s budget: the constructor's opts.maxCycles
  Processor proc_;
  SessionStats stats_;
};

}  // namespace adres::platform
