#include "campaign/runner.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "platform/packet_farm.hpp"

namespace adres::campaign {
namespace {

/// Decode energy in nanojoules: avg power (mW) x cycles / 400 MHz clock.
double decodeEnergyNj(double avgPowerMw, u64 cycles) {
  return avgPowerMw * static_cast<double>(cycles) / 400.0;
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignConfig cfg)
    : cfg_(std::move(cfg)),
      producer_(TrialProducerConfig{cfg_.producers, cfg_.frontend}) {
  ADRES_CHECK(cfg_.workers >= 1, "campaign needs at least one worker");
  cells_ = expand(cfg_.sweep);
  results_.resize(cells_.size());
}

CampaignResult CampaignRunner::run() {
  // Resume: completed cells come back from the checkpoint verbatim.
  std::map<u64, CellResult> resumed;
  if (cfg_.resume && !cfg_.checkpointPath.empty())
    resumed = loadCheckpointFile(cfg_.checkpointPath, cfg_.sweep);

  int completedThisRun = 0;
  bool stoppedEarly = false;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CellSpec& cell = cells_[i];
    currentCell_.store(i, std::memory_order_relaxed);
    if (auto it = resumed.find(cell.key()); it != resumed.end()) {
      std::lock_guard<std::mutex> lk(mu_);
      results_[i] = it->second;
      if (cfg_.log) cfg_.log("cell " + cellLabel(cell) + ": resumed from checkpoint");
      continue;
    }
    if (cfg_.stopAfterCells >= 0 && completedThisRun >= cfg_.stopAfterCells) {
      stoppedEarly = true;
      break;
    }
    CellResult r;
    runCell(cell, r);
    {
      std::lock_guard<std::mutex> lk(mu_);
      results_[i] = r;
    }
    ++completedThisRun;
    cellsDone_.fetch_add(1, std::memory_order_relaxed);
    if (!cfg_.checkpointPath.empty())
      writeCheckpointFile(cfg_.checkpointPath, cfg_.sweep, cells_, results_);
    if (cfg_.log) {
      const Interval ci =
          wilson(r.packetErrors, r.trials, cfg_.sweep.stop.confidence);
      std::ostringstream os;
      os << "cell " << cellLabel(cell) << ": trials=" << r.trials
         << " per=" << r.per() << " [" << ci.lo << ", " << ci.hi << "]"
         << " ber=" << r.ber() << " stop=" << r.stopReason;
      if (r.discardedTrials)
        os << " (truncated: " << r.discardedTrials
           << " in-flight trials past the stop point were discarded)";
      cfg_.log(os.str());
    }
  }

  CampaignResult out;
  out.cells = cells_;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out.results = results_;
  }
  out.completed = !stoppedEarly &&
                  std::all_of(out.results.begin(), out.results.end(),
                              [](const CellResult& r) { return r.done; });
  out.trialsRun = trialsRun_.load(std::memory_order_relaxed);
  for (const CellResult& r : out.results) out.trialsDiscarded += r.discardedTrials;
  return out;
}

void CampaignRunner::runCell(const CellSpec& cell, CellResult& result) {
  const StoppingRule& stop = cfg_.sweep.stop;
  cellTrials_.store(0, std::memory_order_relaxed);
  cellErrors_.store(0, std::memory_order_relaxed);

  platform::FarmConfig fc;
  fc.modem = cell.modem;
  fc.numWorkers = cfg_.workers;
  fc.queueCapacity = cfg_.queueCapacity;
  fc.run = cfg_.run;
  fc.ordered = true;  // trial-order folding requires id-sorted outcomes
  platform::PacketFarm farm(fc);

  u64 nextTrial = 0;
  while (!result.done) {
    const u64 batch =
        std::min(cfg_.sweep.batchSize, stop.maxTrials - nextTrial);
    ADRES_CHECK(batch >= 1, "stopping rule failed to fire by maxTrials");
    // Generate + submit the batch (sharded across the producer threads);
    // payload bits land in txBits_ keyed by trial index.  Jobs are
    // cell-tagged so per-packet trace ids name their campaign cell even
    // when several cells share one metrics endpoint.
    producer_.produceBatch(
        cell, static_cast<u32>(currentCell_.load(std::memory_order_relaxed)),
        nextTrial, batch, farm, txBits_);
    // Fold ordered outcomes in trial order; stop checks after each trial.
    // collectInto + recycleOutcomes cycle the outcome storage and decoded-bit
    // buffers between the runner and the farm's pools (no per-batch heap).
    farm.collectInto(outcomes_);
    ADRES_CHECK(outcomes_.size() == batch, "farm lost a batch outcome");
    for (std::size_t k = 0; k < outcomes_.size(); ++k) {
      const platform::RxOutcome& o = outcomes_[k];
      if (result.done) {
        // Decoded past the stop point: report, never fold.
        result.discardedTrials += outcomes_.size() - k;
        break;
      }
      const std::vector<u8>& bits = txBits_[o.id - nextTrial];
      const u64 nBits = bits.size();
      const bool lost = !o.result.detected || o.result.bits.size() != nBits;
      const u64 errs = lost ? nBits
                            : static_cast<u64>(dsp::bitErrors(o.result.bits, bits));
      result.trials += 1;
      result.bits += nBits;
      result.bitErrors += errs;
      result.packetErrors += errs > 0 ? 1 : 0;
      result.lostPackets += lost ? 1 : 0;
      result.cycles += o.result.cycles;
      result.energyNj += decodeEnergyNj(o.avgPowerMw, o.result.cycles);
      trialsRun_.fetch_add(1, std::memory_order_relaxed);
      cellTrials_.store(result.trials, std::memory_order_relaxed);
      cellErrors_.store(result.packetErrors, std::memory_order_relaxed);

      if (result.trials < stop.minTrials) continue;
      if (result.packetErrors >= stop.errorBudget) {
        result.done = true;
        result.stopReason = "errorBudget";
      } else if (wilson(result.packetErrors, result.trials, stop.confidence)
                     .halfWidth() <= stop.ciHalfWidth) {
        result.done = true;
        result.stopReason = "ci";
      } else if (result.trials >= stop.maxTrials) {
        result.done = true;
        result.stopReason = "maxTrials";
      }
    }
    farm.recycleOutcomes(outcomes_);
    nextTrial += batch;
  }
  (void)farm.finish();
}

void CampaignRunner::registerMetrics(obs::MetricsRegistry& reg) const {
  reg.addGauge("adres_campaign_cells_total", "grid cells in the sweep",
               [this] { return static_cast<double>(cells_.size()); });
  reg.addGauge("adres_campaign_cells_done", "cells completed (incl. resumed)",
               [this] {
                 std::lock_guard<std::mutex> lk(mu_);
                 std::size_t n = 0;
                 for (const CellResult& r : results_) n += r.done ? 1 : 0;
                 return static_cast<double>(n);
               });
  reg.addGauge("adres_campaign_current_cell", "index of the in-flight cell",
               [this] {
                 return static_cast<double>(
                     currentCell_.load(std::memory_order_relaxed));
               });
  reg.addCounter("adres_campaign_trials_total", "trials decoded this run",
                 [this] {
                   return static_cast<double>(
                       trialsRun_.load(std::memory_order_relaxed));
                 });
  reg.addGauge("adres_campaign_cell_trials",
               "trials folded into the in-flight cell",
               [this] {
                 return static_cast<double>(
                     cellTrials_.load(std::memory_order_relaxed));
               });
  reg.addGauge("adres_campaign_cell_packet_errors",
               "packet errors folded into the in-flight cell",
               [this] {
                 return static_cast<double>(
                     cellErrors_.load(std::memory_order_relaxed));
               });
  // Completed-cell summary series, labelled by cell.
  reg.addGaugeFamily(
      "adres_campaign_cell_per", "packet error rate of completed cells",
      [this] {
        std::vector<std::pair<obs::Labels, double>> out;
        std::lock_guard<std::mutex> lk(mu_);
        for (std::size_t i = 0; i < cells_.size(); ++i)
          if (results_[i].done)
            out.push_back({obs::Labels{{"cell", cellLabel(cells_[i])}},
                           results_[i].per()});
        return out;
      });
  reg.addGaugeFamily(
      "adres_campaign_cell_energy_per_bit_nj",
      "decode energy per payload bit (nJ) of completed cells", [this] {
        std::vector<std::pair<obs::Labels, double>> out;
        std::lock_guard<std::mutex> lk(mu_);
        for (std::size_t i = 0; i < cells_.size(); ++i)
          if (results_[i].done)
            out.push_back({obs::Labels{{"cell", cellLabel(cells_[i])}},
                           results_[i].energyPerBitNj()});
        return out;
      });
}

}  // namespace adres::campaign
