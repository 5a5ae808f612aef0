// CampaignRunner: executes a SweepSpec cell-by-cell on a PacketFarm
// (DESIGN.md §11).
//
// Per cell the runner generates trials in counter order — TX payload from
// the trial's kTxStream seed, channel from its kChannelStream seed —
// shards them onto the farm in fixed-size batches, folds the ordered
// outcomes back in trial order, and applies the sequential stopping rule
// after every folded trial.  Because the fold order, the batch size and
// every seed are functions of the spec alone, the accumulated CellResult
// is bit-identical across worker counts and across kill/resume boundaries.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/spec.hpp"
#include "campaign/stats.hpp"
#include "campaign/trial_producer.hpp"
#include "obs/metrics.hpp"
#include "platform/packet_farm.hpp"

namespace adres::campaign {

struct CampaignConfig {
  SweepSpec sweep;
  int workers = 1;
  std::size_t queueCapacity = 32;
  /// Trial-generation shards feeding the farm concurrently (1 generates
  /// inline on the runner thread).  Counter-based per-trial seeding plus
  /// trial-order folding make results — and checkpoint bytes — identical
  /// for any producer count.
  int producers = 1;
  /// TX + channel frontend implementation (scalar reference or the
  /// vectorized default); bit-identical either way.
  dsp::FrontendConfig frontend;
  /// Per-decode run options forwarded to every cell's farm (exec tier,
  /// cycle budget).  All settings keep results bit-exact; they steer host
  /// speed and observability only.
  sdr::RxRunOptions run;
  /// Checkpoint file rewritten (atomically) after every completed cell;
  /// empty disables checkpointing.
  std::string checkpointPath;
  /// Load an existing checkpoint and skip its completed cells.
  bool resume = true;
  /// Stop after this many cells have completed in THIS run (ignoring
  /// resumed cells); < 0 runs the full grid.  Exercises the kill/resume
  /// path deterministically in tests and CI.
  int stopAfterCells = -1;
  /// Progress sink (cell completions, truncation reports); null = silent.
  std::function<void(const std::string&)> log;
};

struct CampaignResult {
  std::vector<CellSpec> cells;
  std::vector<CellResult> results;  ///< parallel to cells
  bool completed = false;           ///< every cell done (no early stop)
  u64 trialsRun = 0;                ///< decoded this run (excludes resumed)
  u64 trialsDiscarded = 0;          ///< decoded past stop points this run
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig cfg);

  /// Runs (or resumes) the campaign; returns per-cell accumulators for the
  /// whole grid.  Call once.
  CampaignResult run();

  /// Live progress series: cells total/done, trials decoded, current-cell
  /// trial count and packet errors, plus per-completed-cell PER/BER gauge
  /// families.  The runner must outlive `reg` (or reg.clear() first).
  void registerMetrics(obs::MetricsRegistry& reg) const;

 private:
  void runCell(const CellSpec& cell, CellResult& result);

  CampaignConfig cfg_;
  std::vector<CellSpec> cells_;
  std::vector<CellResult> results_;
  TrialProducer producer_;  ///< persistent generator shards, reused per cell
  std::vector<std::vector<u8>> txBits_;  ///< batch payloads, capacity reused
  std::vector<platform::RxOutcome> outcomes_;  ///< batch fold buffer, reused
  mutable std::mutex mu_;  ///< guards results_ against metric scrapes

  std::atomic<u64> cellsDone_{0};
  std::atomic<u64> trialsRun_{0};
  std::atomic<u64> cellTrials_{0};
  std::atomic<u64> cellErrors_{0};
  std::atomic<u64> currentCell_{0};
};

}  // namespace adres::campaign
