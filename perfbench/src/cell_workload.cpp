// cell_qam16_overload: one simulated 400 MHz server past its knee.  QAM-16 /
// 2-symbol packets, Poisson arrivals at 200 pkt/s from 48 users (the knee
// is near 35), users spread out to the path-loss floor, and a second class
// whose frame budget is shorter than one nominal decode, so its decodes stop
// at RxJob::maxCycles.  The seed expands into eight 40 ms scenarios (about
// 3000 packets together: fewer leave the delivered fraction swinging by a
// quarter from seed to seed, and one long scenario makes rounds too long to
// pick quiet ones).  Round i runs scenario i % 8 through a fresh
// CellScheduler on a fresh ordered 1-worker farm; its fingerprint hashes the
// adres.cell.v1 summary, so every repeat must produce the same bytes.
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "cell/scheduler.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

using namespace adres;

class CellWorkload final : public Workload {
 public:
  CellWorkload(u64 seed, bool smoke) {
    cell::CellScenario sc;
    sc.modem.mod = dsp::Modulation::kQam16;
    sc.modem.numSymbols = 2;
    sc.numServers = 1;
    sc.durationUs = smoke ? 5'000.0 : 40'000.0;
    // Log-distance path loss reaches the 4 dB floor near 350 m.
    cell::FlowClass ue;
    ue.name = "ue";
    ue.users = 40;
    ue.packetsPerSec = 200.0;
    ue.nearM = 10.0;
    ue.farM = 400.0;
    ue.deadlineUs = 4000.0;
    cell::FlowClass tight = ue;
    tight.name = "tight";
    tight.users = 8;
    tight.deadlineUs = 100.0;  // below one nominal decode (~142 us)
    sc.classes = {ue, tight};
    sc.submitBatch = 32;
    for (u64 k = 0; k < kScenarios; ++k) {
      sc.seed = streamSeed(seed, 3, k);
      scenarios_.push_back(sc);
    }
    totals_.resize(kScenarios);

    const std::size_t probes = smoke ? 4 : 16;
    for (const cell::CellScenario& scen : scenarios_) {
      const cell::CellScheduler plan(scen);
      for (const cell::PacketEvent& ev : plan.schedule()) {
        TrialInput in;
        in.txSeed = cell::packetSeed(scen, ev.flowId, ev.seq, cell::kTxStream);
        in.channel = cell::packetChannel(scen, plan.flows()[ev.flowId], ev);
        inputHash_ = mixIn(mixIn(inputHash_, in.txSeed), in.channel.seed);
        inputHash_ = mixIn(inputHash_, ev.arrivalUs);
        if (trials_.size() < 64) trials_.push_back(in);
        if (probes_.size() < probes) {
          Rng rng(in.txSeed);
          const dsp::TxPacket pkt = dsp::transmit(scen.modem, rng);
          dsp::MimoChannel ch(in.channel);
          probes_.push_back(ch.run(pkt.waveform));
        }
      }
    }
  }

  const char* name() const override { return "cell_qam16_overload"; }
  dsp::ModemConfig modem() const override { return scenarios_.front().modem; }
  std::size_t roundsPerCycle() const override { return kScenarios; }
  u64 inputFingerprint() const override { return inputHash_; }
  const std::vector<RxWave>& probes() const override { return probes_; }
  std::vector<TrialInput> trialInputs() const override { return trials_; }

  void setup(Tracer& tr) override {
    platform::clearModemProgramCache();
    std::shared_ptr<const sdr::ModemOnProcessor> program;
    {
      Tracer::Scope s(tr, "sdr.build");
      program = platform::modemProgramFor(modem());
    }
    {
      Tracer::Scope s(tr, "cga.plan_build");
      (void)program->plansFor(ExecTier::kNative);
    }
    std::optional<platform::PacketFarm> farm;
    {
      Tracer::Scope s(tr, "platform.farm_construct");
      farm.emplace(farmConfig());
    }
    sampler_.attach(&*farm);
    Tracer::Scope s(tr, "bench.warmup");
    (void)farm->submit(probes_.front());
    (void)farm->collect();
    sampler_.flush();
    PassSamples discard;
    sampler_.drainInto(discard);
  }

  /// One scenario on a fresh farm, as bench_cell runs each configuration:
  /// the scheduler's jobs never draw payload buffers from the farm's pool,
  /// so a long-lived farm would accumulate every recycled waveform.
  RoundSim round(Tracer& tr, PassSamples& s, std::size_t index) override {
    const cell::CellScenario& sc = scenarios_[index % kScenarios];
    cell::CellTotals& totals = totals_[index % kScenarios];
    const RoundStart start(tr, s);
    std::optional<platform::PacketFarm> farm;
    {
      Tracer::Scope sp(tr, "platform.farm_construct");
      farm.emplace(farmConfig());
    }
    sampler_.attach(&*farm);
    cell::CellScheduler sched(sc);
    {
      Tracer::Scope sp(tr, "cell.run");
      totals = sched.run(*farm);
    }
    sampler_.flush();
    sampler_.drainInto(s);
    s.backpressureUs += static_cast<double>(farm->submitBackpressureNs()) / 1000.0;
    RoundSim r;
    r.simCycles = farm->cycleSnapshot().sum;
    {
      Tracer::Scope sp(tr, "platform.finish");
      (void)farm->finish();
    }
    {
      Tracer::Scope sp(tr, "bench.check");
      std::string why;
      if (!sched.selfCheck(&why)) {
        std::fprintf(stderr, "cell self-check failed: %s\n", why.c_str());
        ++s.checkFailures;
      }
      std::ostringstream os;
      sched.writeSummary(os);
      const std::string summary = os.str();
      r.fingerprint = mixIn(mixIn(0, r.simCycles),
                            std::vector<u8>(summary.begin(), summary.end()));
    }
    r.packets = totals.offered;
    r.delivered = totals.delivered;
    r.goodBits = sched.goodputBits();
    r.simUs = sc.durationUs;  // goodput per µs of arrival horizon
    closeRound(tr, start, r, s);
    return r;
  }

  void layerMetrics(const Tracer& tr, Report& out) override {
    cell::CellTotals t;
    for (const cell::CellTotals& c : totals_) {
      t.offered += c.offered;
      t.delivered += c.delivered;
      t.errors += c.errors;
      t.missedLate += c.missedLate;
      t.missedExpired += c.missedExpired;
      t.missedOverrun += c.missedOverrun;
      t.utilization += c.utilization / kScenarios;
    }
    out.add("cell.run_ms", "ms", median(tr.durations("cell.run")) / 1000.0);
    out.add("cell.expired", "count", static_cast<double>(t.missedExpired));
    out.add("cell.overrun", "count", static_cast<double>(t.missedOverrun));
    out.add("cell.late", "count", static_cast<double>(t.missedLate));
    out.add("cell.useful_decode_frac", "ratio",
            t.offered ? static_cast<double>(t.delivered + t.errors) /
                            static_cast<double>(t.offered)
                      : 0.0);
    out.add("cell.utilization", "ratio", t.utilization);
  }

  bool finalCheck(std::string*) override { return true; }

 private:
  static constexpr std::size_t kScenarios = 8;

  platform::FarmConfig farmConfig() {
    platform::FarmConfig fc;
    fc.modem = modem();
    fc.numWorkers = 1;
    fc.queueCapacity = 2;  // as bench_cell: the collector feels backpressure
    fc.ordered = true;
    fc.run.exec.tier = ExecTier::kNative;
    fc.preDecodeHook = sampler_.hook();
    return fc;
  }

  std::vector<cell::CellScenario> scenarios_;
  std::vector<RxWave> probes_;
  std::vector<TrialInput> trials_;
  u64 inputHash_ = 0;
  std::vector<cell::CellTotals> totals_;  ///< per scenario, latest run
  FarmSampler sampler_;
};

}  // namespace

std::unique_ptr<Workload> makeCellWorkload(u64 seed, bool smoke) {
  return std::make_unique<CellWorkload>(seed, smoke);
}

}  // namespace perfbench
