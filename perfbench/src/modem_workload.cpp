// modem_qam64_16sym: the paper's Table 2 operating point.  A pool of
// distinct QAM-64 / 16-symbol packets through a mild channel -- identity
// gains through a 2-tap filter, 38 dB, 6 ppm CFO, as bench_table2_profiling
// uses -- is generated from the seed; each round decodes the pool through a
// 1-worker PacketFarm with one packet outstanding and checks every payload
// bit.  (Over Rayleigh taps uncoded QAM-64 loses a packet to a deep fade now
// and then, and this workload measures the operating point, not fades.)
#include "bench.hpp"
#include "common/rng.hpp"
#include "dsp/channel.hpp"
#include "platform/packet_farm.hpp"

namespace perfbench {
namespace {

using namespace adres;

class ModemWorkload final : public Workload {
 public:
  ModemWorkload(u64 seed, bool smoke) : seed_(seed), poolSize_(smoke ? 6 : 96) {
    cfg_.mod = dsp::Modulation::kQam64;
    cfg_.numSymbols = 16;
    generatePool();  // benchmark inputs, not system set-up: outside setup_s
  }

  const char* name() const override { return "modem_qam64_16sym"; }
  dsp::ModemConfig modem() const override { return cfg_; }
  u64 inputFingerprint() const override { return inputHash_; }
  const std::vector<RxWave>& probes() const override { return pool_; }

  std::vector<TrialInput> trialInputs() const override {
    std::vector<TrialInput> out;
    for (u64 i = 0; i < 16; ++i) out.push_back(poolInput(i));
    return out;
  }

  void setup(Tracer& tr) override {
    farm_.reset();
    platform::clearModemProgramCache();
    std::shared_ptr<const sdr::ModemOnProcessor> modem;
    {
      Tracer::Scope s(tr, "sdr.build");
      modem = platform::modemProgramFor(cfg_);
    }
    {
      Tracer::Scope s(tr, "cga.plan_build");
      (void)modem->plansFor(ExecTier::kNative);
    }
    {
      Tracer::Scope s(tr, "platform.farm_construct");
      platform::FarmConfig fc;
      fc.modem = cfg_;
      fc.numWorkers = 1;
      fc.run.exec.tier = ExecTier::kNative;
      fc.preDecodeHook = sampler_.hook();
      farm_ = std::make_unique<platform::PacketFarm>(fc);
      sampler_.attach(farm_.get());
    }
    Tracer::Scope s(tr, "bench.warmup");
    (void)farm_->submit(pool_.front());
    (void)farm_->collect();
    sampler_.flush();
    PassSamples discard;
    sampler_.drainInto(discard);
  }

  RoundSim round(Tracer& tr, PassSamples& s, std::size_t) override {
    const RoundStart start(tr, s);
    const u64 backpressure0 = farm_->submitBackpressureNs();
    RoundSim r;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      // Payload storage cycles through the farm's pool, as a producer's does.
      platform::RxJob job;
      job.id = nextId_++;
      for (std::size_t a = 0; a < job.rx.size(); ++a) {
        job.rx[a] = farm_->acquireSampleBuffer();
        job.rx[a].assign(pool_[i][a].begin(), pool_[i][a].end());
      }
      {
        Tracer::Scope sp(tr, "platform.submit", i);
        farm_->submit(std::move(job));
      }
      {
        Tracer::Scope sp(tr, "platform.collect", i);
        farm_->collectInto(outs_);
      }
      Tracer::Scope sp(tr, "bench.check", i);
      const platform::RxOutcome& o = outs_.at(0);
      const std::vector<u8>& tx = bits_[i];
      const bool good = o.result.halted() && o.result.detected &&
                        o.result.bits.size() == tx.size() &&
                        dsp::bitErrors(o.result.bits, tx) == 0;
      if (good) {
        ++r.delivered;
        r.goodBits += tx.size();
      } else {
        ++s.checkFailures;
      }
      ++r.packets;
      r.simCycles += o.result.cycles;
      r.fingerprint = mixIn(r.fingerprint, o.result.cycles);
      r.fingerprint = mixIn(r.fingerprint, static_cast<u64>(o.result.ltfStart));
      r.fingerprint = mixIn(r.fingerprint, o.result.bits);
      farm_->recycleOutcomes(outs_);
    }
    r.simUs = static_cast<double>(r.simCycles) / kClockMHz;
    s.backpressureUs +=
        static_cast<double>(farm_->submitBackpressureNs() - backpressure0) / 1000.0;
    sampler_.flush();
    sampler_.drainInto(s);
    closeRound(tr, start, r, s);
    return r;
  }

  void layerMetrics(const Tracer&, Report&) override {}
  bool finalCheck(std::string*) override { return true; }

 private:
  /// Pool packet `i`: payload and channel seeds.
  TrialInput poolInput(u64 i) const {
    TrialInput t;
    t.txSeed = streamSeed(seed_, 1, i);
    t.channel.taps = 2;
    t.channel.flat = true;
    t.channel.snrDb = 38;
    t.channel.cfoPpm = 6;
    t.channel.seed = streamSeed(seed_, 2, i);
    return t;
  }

  void generatePool() {
    for (u64 i = 0; i < poolSize_; ++i) {
      const TrialInput t = poolInput(i);
      Rng rng(t.txSeed);
      dsp::TxPacket pkt = dsp::transmit(cfg_, rng);
      dsp::MimoChannel ch(t.channel);
      RxWave rx = ch.run(pkt.waveform);
      inputHash_ = mixIn(mixIn(inputHash_, rx), pkt.bits);
      pool_.push_back(std::move(rx));
      bits_.push_back(std::move(pkt.bits));
    }
  }

  u64 seed_;
  std::size_t poolSize_;
  dsp::ModemConfig cfg_;
  std::vector<RxWave> pool_;
  std::vector<std::vector<u8>> bits_;
  u64 inputHash_ = 0;
  FarmSampler sampler_;
  std::unique_ptr<platform::PacketFarm> farm_;
  std::vector<platform::RxOutcome> outs_;
  u64 nextId_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeModemWorkload(u64 seed, bool smoke) {
  return std::make_unique<ModemWorkload>(seed, smoke);
}

}  // namespace perfbench
