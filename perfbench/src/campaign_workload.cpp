// campaign_qam64_waterfall: a fixed-work QAM-64 waterfall campaign (4
// symbols, 3-tap channel filter, 10 ppm CFO, SNR 22/26/30 dB, min = max
// trials per cell).  The channel is the identity-gain one the repo defines
// its waterfall on (EXPERIMENTS.md): over Rayleigh taps uncoded QAM-64 has
// a PER floor above 0.5 at any SNR, so the delivered fraction would be a
// few noisy percent.
// Each round drives the campaign engine's parts the way
// campaign::CampaignRunner::runCell does -- a 1-worker farm per cell, the
// TrialProducer filling 16-trial batches with the vectorized frontend,
// ordered collect, trial-order fold into CellResult -- so every call into a
// layer can be spanned.  finalCheck() runs the real CampaignRunner on the
// same spec and requires identical per-cell counts.
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "campaign/runner.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

using namespace adres;

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(u64 seed, bool smoke) {
    const u64 trials = smoke ? 16 : 128;
    spec_.seed = seed;
    spec_.mods = {dsp::Modulation::kQam64};
    spec_.numSymbols = {4};
    spec_.taps = {3};
    spec_.flat = true;
    spec_.cfoPpm = {10.0};
    spec_.snrDb = {22.0, 26.0, 30.0};
    spec_.batchSize = 16;
    spec_.stop.minTrials = trials;
    spec_.stop.maxTrials = trials;  // fixed work: the stop rule never fires early
    spec_.stop.errorBudget = trials + 1;
    spec_.stop.ciHalfWidth = 0.0;
    cells_ = campaign::expand(spec_);
    results_.resize(cells_.size());
    // Probes: the first trials of every cell, as the producer makes them.
    for (const campaign::CellSpec& cell : cells_) {
      for (u64 t = 0; t < (smoke ? 2u : 4u); ++t) {
        const TrialInput in = trialInput(cell, t);
        Rng rng(in.txSeed);
        std::vector<u8> bits;
        RxWave rx;
        dsp::generateTrial(cell.modem, in.channel, rng, bits, rx, scratch_);
        inputHash_ = mixIn(mixIn(inputHash_, rx), bits);
        probes_.push_back(std::move(rx));
      }
    }
  }

  const char* name() const override { return "campaign_qam64_waterfall"; }
  dsp::ModemConfig modem() const override { return cells_.front().modem; }
  u64 inputFingerprint() const override { return inputHash_; }
  const std::vector<RxWave>& probes() const override { return probes_; }

  std::vector<TrialInput> trialInputs() const override {
    std::vector<TrialInput> out;
    for (const campaign::CellSpec& cell : cells_)
      for (u64 t = 0; t < 16; ++t) out.push_back(trialInput(cell, t));
    return out;
  }

  void setup(Tracer& tr) override {
    producer_.reset();
    platform::clearModemProgramCache();
    std::shared_ptr<const sdr::ModemOnProcessor> modem;
    {
      Tracer::Scope s(tr, "sdr.build");
      modem = platform::modemProgramFor(cells_.front().modem);
    }
    {
      Tracer::Scope s(tr, "cga.plan_build");
      (void)modem->plansFor(ExecTier::kNative);
    }
    producer_ = std::make_unique<campaign::TrialProducer>(
        campaign::TrialProducerConfig{1, dsp::FrontendConfig{}});
    Tracer::Scope s(tr, "bench.warmup");
    platform::PacketFarm farm(farmConfig(cells_.front()));
    (void)farm.submit(probes_.front());
    (void)farm.collect();
  }

  RoundSim round(Tracer& tr, PassSamples& s, std::size_t) override {
    const RoundStart start(tr, s);
    RoundSim r;
    for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
      const campaign::CellSpec& cell = cells_[ci];
      campaign::CellResult& res = results_[ci];
      res = campaign::CellResult{};
      platform::FarmConfig fc = farmConfig(cell);
      fc.preDecodeHook = sampler_.hook();
      std::optional<platform::PacketFarm> farm;
      {
        Tracer::Scope sp(tr, "platform.farm_construct", ci);
        farm.emplace(fc);
      }
      sampler_.attach(&*farm);
      for (u64 first = 0; first < spec_.stop.maxTrials; first += spec_.batchSize) {
        const u64 n = std::min(spec_.batchSize, spec_.stop.maxTrials - first);
        const u64 group = ci << 32 | first;
        {
          Tracer::Scope sp(tr, "campaign.produce_batch", group);
          producer_->produceBatch(cell, static_cast<u32>(ci), first, n, *farm,
                                  txBits_);
        }
        {
          Tracer::Scope sp(tr, "platform.collect", group);
          farm->collectInto(outs_);
        }
        Tracer::Scope sp(tr, "campaign.fold", group);
        if (outs_.size() != n) {
          ++s.checkFailures;
          continue;
        }
        for (const platform::RxOutcome& o : outs_) {
          // The runner's fold (campaign/runner.cpp), trial order.
          const std::vector<u8>& bits = txBits_[o.id - first];
          const u64 nBits = bits.size();
          const bool lost = !o.result.detected || o.result.bits.size() != nBits;
          const u64 errs =
              lost ? nBits : static_cast<u64>(dsp::bitErrors(o.result.bits, bits));
          res.trials += 1;
          res.bits += nBits;
          res.bitErrors += errs;
          res.packetErrors += errs > 0 ? 1 : 0;
          res.lostPackets += lost ? 1 : 0;
          res.cycles += o.result.cycles;
          if (errs == 0) {
            ++r.delivered;
            r.goodBits += nBits;
          }
        }
        farm->recycleOutcomes(outs_);
      }
      s.backpressureUs += static_cast<double>(farm->submitBackpressureNs()) / 1000.0;
      sampler_.flush();  // before finish(): the worker thread must be alive
      sampler_.drainInto(s);
      {
        Tracer::Scope sp(tr, "platform.finish", ci);
        (void)farm->finish();
      }
      r.packets += res.trials;
      r.simCycles += res.cycles;
      for (u64 v : {res.trials, res.bits, res.bitErrors, res.packetErrors,
                    res.lostPackets, res.cycles})
        r.fingerprint = mixIn(r.fingerprint, v);
    }
    r.simUs = static_cast<double>(r.simCycles) / kClockMHz;
    closeRound(tr, start, r, s);
    return r;
  }

  void layerMetrics(const Tracer& tr, Report& out) override {
    out.add("campaign.produce_batch_ms", "ms",
            median(tr.durations("campaign.produce_batch")) / 1000.0);
    u64 trials = 0, errors = 0;
    for (const campaign::CellResult& c : results_) {
      trials += c.trials;
      errors += c.packetErrors;
    }
    out.add("campaign.per", "ratio",
            trials ? static_cast<double>(errors) / static_cast<double>(trials) : 0.0);
  }

  bool finalCheck(std::string* why) override {
    campaign::CampaignConfig cc;
    cc.sweep = spec_;
    cc.workers = 1;
    cc.producers = 1;
    cc.run.exec.tier = ExecTier::kNative;
    const campaign::CampaignResult res = campaign::CampaignRunner(cc).run();
    if (!res.completed || res.results.size() != results_.size()) {
      *why = "CampaignRunner did not complete the grid";
      return false;
    }
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const campaign::CellResult& a = res.results[i];
      const campaign::CellResult& b = results_[i];
      if (a.trials != b.trials || a.bits != b.bits || a.bitErrors != b.bitErrors ||
          a.packetErrors != b.packetErrors || a.lostPackets != b.lostPackets ||
          a.cycles != b.cycles) {
        std::ostringstream os;
        os << "cell " << campaign::cellLabel(cells_[i])
           << ": CampaignRunner counts differ from the benchmark's fold (trials "
           << a.trials << " vs " << b.trials << ", packet errors "
           << a.packetErrors << " vs " << b.packetErrors << ")";
        *why = os.str();
        return false;
      }
    }
    return true;
  }

 private:
  /// The farm CampaignRunner builds for a cell, on the native tier.
  static platform::FarmConfig farmConfig(const campaign::CellSpec& cell) {
    platform::FarmConfig fc;
    fc.modem = cell.modem;
    fc.numWorkers = 1;
    fc.ordered = true;
    fc.run.exec.tier = ExecTier::kNative;
    return fc;
  }

  static TrialInput trialInput(const campaign::CellSpec& cell, u64 t) {
    TrialInput in;
    in.txSeed = cell.trialSeed(t, campaign::CellSpec::kTxStream);
    in.channel = cell.channel;
    in.channel.seed = cell.trialSeed(t, campaign::CellSpec::kChannelStream);
    return in;
  }

  campaign::SweepSpec spec_;
  std::vector<campaign::CellSpec> cells_;
  std::vector<campaign::CellResult> results_;  ///< of the latest round
  std::vector<RxWave> probes_;
  dsp::TrialScratch scratch_;
  u64 inputHash_ = 0;
  FarmSampler sampler_;
  std::unique_ptr<campaign::TrialProducer> producer_;
  std::vector<std::vector<u8>> txBits_;
  std::vector<platform::RxOutcome> outs_;
};

}  // namespace

std::unique_ptr<Workload> makeCampaignWorkload(u64 seed, bool smoke) {
  return std::make_unique<CampaignWorkload>(seed, smoke);
}

}  // namespace perfbench
