// Postmortem replay: re-decodes an adres.postmortem.v1 bundle standalone —
// fresh Processor, program rebuilt from the recorded modem configuration,
// the recorded rx payload — and checks the result against the bundle's
// recorded decodes (DESIGN.md §16).
//
// Because every decode is a deterministic function of (waveform, config,
// tier), the verdict is sharp:
//  - With a shadow decode recorded (a sentinel divergence bundle), the
//    clean replay must reproduce the SHADOW result bit- and cycle-exactly,
//    and re-running with the recorded fault seed must reproduce the
//    PRIMARY's corrupted bits — i.e. the bundle demonstrably contains a
//    real, reproducible divergence.
//  - Without a shadow (watchdog / SLO-breach bundles), the clean replay
//    must reproduce the recorded primary (or, for a budget-truncated
//    primary, at least decode consistently under the same budget).
//
// tools/postmortem_replay is a thin CLI over replayPostmortem().
#pragma once

#include <optional>
#include <string>

#include "obs/postmortem.hpp"

namespace adres::platform {

struct ReplayReport {
  obs::DecodeSummary replay;  ///< the clean re-decode of the bundle's rx
  /// Fault-seeded re-decode (present when the bundle carries a fault seed).
  std::optional<obs::DecodeSummary> faultReplay;
  bool matchesPrimary = false;  ///< replay == recorded primary (bits+cycles)
  bool matchesShadow = false;   ///< replay == recorded shadow (bits+cycles)
  bool faultReproducesPrimary = false;  ///< faultReplay == recorded primary
  /// The bundle's failure story holds up under re-execution (see the
  /// per-trigger rules in the header comment).
  bool consistent = false;
  std::string verdict;  ///< one-line human-readable conclusion
};

/// Re-decodes the bundle's packet and renders the verdict.  Throws SimError
/// on an unreplayable bundle (unknown tier label, empty rx payload).
ReplayReport replayPostmortem(const obs::PostmortemBundle& b);

}  // namespace adres::platform
