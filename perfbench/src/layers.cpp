// Report/Tracer plumbing and the layer measurements every workload shares:
// sched (mapping), cga (plan build, kernel execution on prebuilt plans,
// simulated per-kernel cycles), core (program load, mode cycles), mem, sdr
// and dsp trial generation.
#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "cga/plan.hpp"
#include "common/rng.hpp"
#include "dsp/frontend.hpp"
#include "kernels.hpp"
#include "platform/rx_session.hpp"
#include "sched/modulo.hpp"

namespace perfbench {

using namespace adres;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

u64 mixIn(u64 h, const std::vector<u8>& bytes) {
  h = mixIn(h, static_cast<u64>(bytes.size()));
  for (u8 b : bytes) h = mixIn(h, static_cast<u64>(b));
  return h;
}

u64 mixIn(u64 h, const RxWave& rx) {
  for (const auto& ant : rx) {
    h = mixIn(h, static_cast<u64>(ant.size()));
    for (const cint16& s : ant)
      h = mixIn(h, static_cast<u64>(static_cast<u16>(s.re)) << 16 |
                       static_cast<u16>(s.im));
  }
  return h;
}

void Report::add(std::string name, std::string unit, double value) {
  metrics_.push_back({std::move(name), std::move(unit), value});
}

double Report::get(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return m.value;
  throw std::runtime_error("perfbench: no metric " + name);
}

int Tracer::begin(const char* name, u64 group) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.group = group;
  s.startUs = usSince(epoch_);
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].endUs = usSince(epoch_);
  open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.endUs - s.startUs);
  return out;
}

double Tracer::topLevelUs(std::size_t from) const {
  double us = 0;
  for (std::size_t i = from; i < spans_.size(); ++i)
    if (spans_[i].parent < static_cast<int>(from))
      us += spans_[i].endUs - spans_[i].startUs;
  return us;
}

void Tracer::writeJson(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %d, \"group\": %llu}}",
                  i ? "," : "", s.name.c_str(), s.startUs, s.endUs - s.startUs,
                  i, s.parent, static_cast<unsigned long long>(s.group));
    os << buf;
  }
  os << "\n]}\n";
}

void addPlatformLayers(const PassSamples& s, Report& out) {
  out.add("platform.queue_wait_p50_us", "us", quantile(s.queueWaitUs, 0.5));
  out.add("platform.queue_wait_p99_us", "us", quantile(s.queueWaitUs, 0.99));
  out.add("platform.decode_p50_us", "us", quantile(s.decodeUs, 0.5));
  out.add("platform.decode_p99_us", "us", quantile(s.decodeUs, 0.99));
  out.add("platform.backpressure_ms", "ms",
          s.rounds.empty() ? 0.0
                           : s.backpressureUs / 1000.0 / static_cast<double>(s.rounds.size()));
}

namespace {

/// Host ns per simulated cycle of `launch` repeated for about `budgetUs`.
template <typename Fn>
double nsPerCycle(double budgetUs, Fn&& launch) {
  u64 cycles = 0;
  const auto t0 = Clock::now();
  double us = 0;
  do {
    cycles += launch();
    us = usSince(t0);
  } while (us < budgetUs);
  return cycles ? us * 1000.0 / static_cast<double>(cycles) : 0.0;
}

}  // namespace

void measureSharedLayers(Workload& w, bool smoke, Report& out) {
  const dsp::ModemConfig cfg = w.modem();
  const std::vector<KernelSpec> kernels = tableTwoKernels(cfg.mod);
  const auto modem = platform::modemProgramFor(cfg);
  const std::vector<KernelConfig>& table = modem->program.kernels;
  if (table.size() != kernels.size())
    throw std::runtime_error("perfbench: modem program has " +
                             std::to_string(table.size()) + " kernels, expected " +
                             std::to_string(kernels.size()));
  for (std::size_t i = 0; i < kernels.size(); ++i)
    if (table[i].name != kernels[i].programName)
      throw std::runtime_error("perfbench: kernel " + std::to_string(i) +
                               " is '" + table[i].name + "', expected '" +
                               kernels[i].programName + "'");

  // -- sched: map every kernel on its own, timed around scheduleKernel -----
  std::vector<KernelConfig> mapped;
  double mapMsTotal = 0;
  u64 attempts = 0;
  double sumII = 0, sumMII = 0;
  Report perKernelSched;
  for (const KernelSpec& k : kernels) {
    const KernelDfg dfg = k.build();
    ScheduleDiagnostics diag;
    ScheduleOptions opts;
    opts.diag = &diag;
    const auto t0 = Clock::now();
    const ScheduledKernel sk = scheduleKernel(dfg, opts);
    const double ms = usSince(t0) / 1000.0;
    mapMsTotal += ms;
    attempts += static_cast<u64>(diag.totalAttempts());
    sumII += sk.ii;
    sumMII += std::max(diag.miiResource, diag.miiRecurrence);
    perKernelSched.add("sched." + k.name + ".map_ms", "ms", ms);
    perKernelSched.add("sched." + k.name + ".ii", "cycles", sk.ii);
    mapped.push_back(sk.config);
  }
  out.add("sched.map_ms", "ms", mapMsTotal);
  out.add("sched.attempts", "count", static_cast<double>(attempts));
  out.add("sched.ii_over_mii", "ratio", sumMII > 0 ? sumII / sumMII : 0.0);
  for (const Report::Metric& m : perKernelSched.metrics())
    out.add(m.name, m.unit, m.value);

  // -- cga: kernel execution on plans built once ---------------------------
  const double kernelBudgetUs = smoke ? 3'000 : 40'000;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelSpec& k = kernels[i];
    const KernelPlan plan = buildKernelPlan(mapped[i], ExecTier::kNative);
    Fabric f;
    prepareFabric(f);
    k.setup(f);
    (void)f.array.run(plan, k.trips);  // warm-up
    const double ns = nsPerCycle(kernelBudgetUs, [&] {
      k.setup(f);
      return f.array.run(plan, k.trips).cycles;
    });
    out.add("cga." + k.name + ".ns_per_cycle", "ns/cycle", ns);
  }

  // -- simulated per-packet statistics from full decodes of the probe set --
  const std::vector<RxWave>& probes = w.probes();
  if (probes.empty()) throw std::runtime_error("perfbench: empty probe set");
  sdr::RxRunOptions o;
  o.exec.tier = ExecTier::kNative;
  o.exec.plans = modem->plansFor(ExecTier::kNative);
  o.exec.warmReload = true;
  o.profile = true;
  Processor proc;
  std::vector<u64> kCycles(kernels.size(), 0), kStall(kernels.size(), 0);
  u64 cycles = 0, vliwCycles = 0, cgaCycles = 0, vliwOps = 0, cgaOps = 0;
  u64 conflicts = 0, icMisses = 0;
  for (const RxWave& rx : probes) {
    const sdr::ProcessorRxResult r = sdr::runModemOnProcessor(proc, *modem, rx, o);
    cycles += r.cycles;
    for (const auto& [key, p] : proc.kernelProfiles()) {
      const std::size_t kid = key.second;
      if (kid >= kernels.size()) continue;
      kCycles[kid] += p.cycles;
      kStall[kid] += p.stallCycles;
    }
    const ActivityCounters& a = proc.activity();
    vliwCycles += a.vliwCycles;
    cgaCycles += a.cgaCycles;
    vliwOps += a.vliwOps;
    cgaOps += a.cgaOps;
    conflicts += proc.l1().stats().conflicts;
    icMisses += proc.icache().stats().misses;
  }
  const double n = static_cast<double>(probes.size());
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    out.add("cga." + kernels[i].name + ".sim_cycles", "cycles",
            static_cast<double>(kCycles[i]) / n);
    out.add("cga." + kernels[i].name + ".stall_share", "ratio",
            kCycles[i] ? static_cast<double>(kStall[i]) /
                             static_cast<double>(kCycles[i])
                       : 0.0);
  }
  out.add("core.vliw_cycles", "cycles", static_cast<double>(vliwCycles) / n);
  out.add("core.cga_cycles", "cycles", static_cast<double>(cgaCycles) / n);
  out.add("core.vliw_ipc", "ops/cycle",
          vliwCycles ? static_cast<double>(vliwOps) / static_cast<double>(vliwCycles) : 0.0);
  out.add("core.cga_ipc", "ops/cycle",
          cgaCycles ? static_cast<double>(cgaOps) / static_cast<double>(cgaCycles) : 0.0);
  out.add("mem.l1_bank_conflicts", "count", static_cast<double>(conflicts) / n);
  out.add("mem.icache_misses", "count", static_cast<double>(icMisses) / n);
  out.add("sdr.paper_cycle_ratio", "ratio",
          static_cast<double>(cycles) / n / paperPacketCycles(cfg.numSymbols));

  // -- sdr: host cost of a warm decode on a bare processor ------------------
  o.profile = false;
  std::size_t next = 0;
  out.add("sdr.rx_ns_per_cycle", "ns/cycle",
          nsPerCycle(smoke ? 20'000 : 300'000, [&] {
            const RxWave& rx = probes[next++ % probes.size()];
            return sdr::runModemOnProcessor(proc, *modem, rx, o).cycles;
          }));

  // -- core: program load, cold (full validate/encode/decode) and warm -----
  {
    const int coldLoads = smoke ? 3 : 15, warmLoads = smoke ? 20 : 200;
    Processor p;
    ExecPolicy pol;
    pol.tier = ExecTier::kNative;
    pol.plans = modem->plansFor(ExecTier::kNative);
    std::vector<double> cold, warm;
    for (int i = 0; i < coldLoads; ++i) {
      const auto t0 = Clock::now();
      p.load(modem->program, pol);
      cold.push_back(usSince(t0));
    }
    pol.warmReload = true;
    p.load(modem->program, pol);  // arms the warm-reload identity
    for (int i = 0; i < warmLoads; ++i) {
      const auto t0 = Clock::now();
      p.load(modem->program, pol);
      warm.push_back(usSince(t0));
    }
    out.add("core.load_cold_us", "us", median(cold));
    out.add("core.load_warm_us", "us", median(warm));
  }

  // -- dsp: trial generation for this workload's channels -------------------
  // Scalar = transmit + MimoChannel::run (the cell collector's path);
  // vectorized = generateTrial into reused buffers (the campaign producer's).
  const std::vector<TrialInput> trials = w.trialInputs();
  for (const dsp::FrontendKind kind :
       {dsp::FrontendKind::kScalar, dsp::FrontendKind::kVectorized}) {
    dsp::FrontendConfig fe;
    fe.kind = kind;
    dsp::TrialScratch scratch;
    std::vector<u8> bits;
    RxWave rx;
    std::vector<double> us;
    for (const TrialInput& t : trials) {
      Rng txRng(t.txSeed);
      const auto t0 = Clock::now();
      dsp::generateTrial(cfg, t.channel, txRng, bits, rx, scratch, fe);
      us.push_back(usSince(t0));
    }
    out.add(kind == dsp::FrontendKind::kScalar ? "dsp.scalar_trial_us"
                                               : "dsp.vector_trial_us",
            "us", median(us));
  }
}

RoundSim& RoundSim::operator+=(const RoundSim& o) {
  packets += o.packets;
  delivered += o.delivered;
  simCycles += o.simCycles;
  goodBits += o.goodBits;
  simUs += o.simUs;
  fingerprint = mixIn(fingerprint, o.fingerprint);
  return *this;
}

void closeRound(const Tracer& tr, const RoundStart& start, const RoundSim& sim,
                PassSamples& s) {
  const double us = usSince(start.wall);
  PassSamples::Round r;
  r.packetsPerS = static_cast<double>(sim.packets) * 1e6 / us;
  r.mcyclesPerS = static_cast<double>(sim.simCycles) / us;
  r.firstSample = start.firstSample;
  r.endSample = s.latencyUs.size();
  s.rounds.push_back(r);
  s.wallUs += us;
  s.spannedUs += tr.topLevelUs(start.spanFrom);
  s.packets += sim.packets;
}

QuietHost quietHost(const PassSamples& s) {
  std::vector<PassSamples::Round> rounds = s.rounds;
  std::sort(rounds.begin(), rounds.end(),
            [](const auto& a, const auto& b) { return a.packetsPerS > b.packetsPerS; });
  rounds.resize(std::max<std::size_t>(1, rounds.size() / 5));
  QuietHost q;
  std::vector<double> pps, mcps, p50;
  for (const auto& r : rounds) {
    pps.push_back(r.packetsPerS);
    mcps.push_back(r.mcyclesPerS);
    const std::vector<double> lat(s.latencyUs.begin() + static_cast<long>(r.firstSample),
                                  s.latencyUs.begin() + static_cast<long>(r.endSample));
    p50.push_back(quantile(lat, 0.5));
    q.samples += lat.size();
  }
  q.packetsPerS = median(pps);
  q.mcyclesPerS = median(mcps);
  q.latencyP50Us = median(p50);
  q.rounds = rounds.size();
  return q;
}

std::function<void(int, const platform::RxJob&)> FarmSampler::hook() {
  return [this](int, const platform::RxJob&) { sample(); };
}

void FarmSampler::attach(const platform::PacketFarm* farm) {
  farm_ = farm;
  primed_ = false;
}

void FarmSampler::sample() {
  const obs::HistogramSnapshot lat = farm_->latencySnapshot();
  const obs::HistogramSnapshot qw = farm_->queueWaitSnapshot();
  if (primed_ && lat.count == seen_ + 1) {
    decode_.push_back(static_cast<double>(lat.sum - latSum_) / 1000.0);
    queueWait_.push_back(static_cast<double>(qw.sum - qwSum_) / 1000.0);
  }
  primed_ = true;
  seen_ = lat.count;
  latSum_ = lat.sum;
  qwSum_ = qw.sum;
}

void FarmSampler::drainInto(PassSamples& s) {
  for (std::size_t i = 0; i < decode_.size(); ++i) {
    s.decodeUs.push_back(decode_[i]);
    s.queueWaitUs.push_back(queueWait_[i]);
    s.latencyUs.push_back(decode_[i] + queueWait_[i]);
  }
  decode_.clear();
  queueWait_.clear();
}

}  // namespace perfbench
