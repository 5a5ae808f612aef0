// Resumable campaign checkpoints: the adres.campaign.v1 JSON schema.
//
// The file is a pure function of (spec, completed cells): cells are written
// in expansion order, integer accumulators as decimal, doubles as %.17g
// (lossless round-trip through std::stod), 64-bit keys as fixed-width hex
// strings.  Rewriting it after every completed cell via tmp+rename keeps
// the on-disk file atomic — a killed campaign resumes from the last
// completed cell, and a resumed run's final checkpoint is byte-identical
// to an uninterrupted one.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "campaign/stats.hpp"

namespace adres::campaign {

inline constexpr const char* kCheckpointSchema = "adres.campaign.v1";

/// Writes the checkpoint for `spec` with the completed subset of `cells`
/// (parallel to `results`; entries with !done are skipped).
void writeCheckpoint(std::ostream& os, const SweepSpec& spec,
                     const std::vector<CellSpec>& cells,
                     const std::vector<CellResult>& results);

/// writeCheckpoint to `path` atomically (writeFileAtomic); throws SimError
/// naming `path` when the write fails.
void writeCheckpointFile(const std::string& path, const SweepSpec& spec,
                         const std::vector<CellSpec>& cells,
                         const std::vector<CellResult>& results);

/// Parses a checkpoint and returns completed cells keyed by CellSpec::key().
/// ADRES_CHECKs the schema string and that specHash matches `spec` — a
/// checkpoint never silently resumes a different sweep — and throws naming
/// the key on a malformed field (a wrong JSON type, a counter that is not
/// an exact non-negative integer, a key that is not hex64).
std::map<u64, CellResult> loadCheckpoint(std::istream& is,
                                         const SweepSpec& spec);

/// File variant; a missing file yields an empty map (fresh start).
std::map<u64, CellResult> loadCheckpointFile(const std::string& path,
                                             const SweepSpec& spec);

}  // namespace adres::campaign
