// Postmortem replay: re-runs every decode an adres.postmortem.v1 bundle
// records, each by its own recipe, and judges the bundle (DESIGN.md §16).
//
// A decode is a deterministic function of its recipe: the rx payload, the
// modem configuration, the cycle budget, the exec tier and the fault seed.
// The primary record was decoded on the bundle's `exec_tier` with its
// recorded fault seed; the shadow record (divergence bundles only) on
// `shadow_tier` with none.  Replay re-decodes each record through an
// RxSession built from that recipe and compares it with the record by
// obs::compareDecodes — bits, result, cycles and the counter partition, the
// sentinel's own comparison.  A bundle is consistent when every recorded
// decode reproduces and, for a divergence bundle, the two records differ.
//
// tools/postmortem_replay is a thin CLI over replayPostmortem().
#pragma once

#include <string>

#include "obs/postmortem.hpp"

namespace adres::platform {

struct ReplayReport {
  bool primaryReproduced = false;  ///< re-decode == recorded primary
  bool shadowReproduced = false;   ///< re-decode == recorded shadow
  bool recordsDiffer = false;  ///< recorded primary != recorded shadow
  /// Every recorded decode reproduces and, with a shadow, the records
  /// differ.
  bool consistent = false;
  std::string verdict;  ///< one-line human-readable conclusion
};

/// Re-decodes the bundle's packet by each record's recipe and renders the
/// verdict.  Throws SimError on an unreplayable bundle (unknown tier label,
/// empty rx payload).
ReplayReport replayPostmortem(const obs::PostmortemBundle& b);

}  // namespace adres::platform
