#include "cell/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "dsp/frontend.hpp"

namespace adres::cell {
namespace {

std::string hex64(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string fmtDouble(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

u64 relaxed(const std::atomic<u64>& a) {
  return a.load(std::memory_order_relaxed);
}

}  // namespace

CellScheduler::CellScheduler(CellScenario scenario)
    : scenario_(std::move(scenario)) {
  flows_ = expandFlows(scenario_);
  schedule_ = buildSchedule(scenario_, flows_);
  flowStats_.reserve(flows_.size());
  flowSnr0Db_.reserve(flows_.size());
  for (const UserFlow& f : flows_) {
    flowStats_.push_back(std::make_unique<FlowStats>());
    flowSnr0Db_.push_back(flowSnrDbAt(scenario_, f, 0.0));
  }
  classLatencyNs_.reserve(scenario_.classes.size());
  for (std::size_t i = 0; i < scenario_.classes.size(); ++i)
    classLatencyNs_.push_back(std::make_unique<obs::LogLinearHistogram>());
  serverFreeUs_.assign(static_cast<std::size_t>(scenario_.numServers), 0.0);
  serverBusyUs_.assign(static_cast<std::size_t>(scenario_.numServers), 0.0);
}

CellTotals CellScheduler::run(platform::PacketFarm& farm) {
  ADRES_CHECK(!ran_, "CellScheduler::run is one-shot");
  ran_ = true;
  ADRES_CHECK(farm.config().ordered,
              "cell scheduler needs an ordered farm (DES folds in id order)");
  ADRES_CHECK(farm.config().modem == scenario_.modem,
              "farm modem != scenario modem");

  const std::size_t batch = static_cast<std::size_t>(scenario_.submitBatch);
  std::vector<std::vector<u8>> golden(batch);
  std::vector<platform::RxOutcome> outs;
  dsp::TrialScratch scratch;  // reused by every packet of the run
  std::size_t next = 0;
  while (next < schedule_.size()) {
    const std::size_t n = std::min(batch, schedule_.size() - next);
    for (std::size_t i = 0; i < n; ++i) {
      const PacketEvent& ev = schedule_[next + i];
      const UserFlow& flow = flows_[ev.flowId];
      // Independent counter-derived streams: the payload and the channel
      // realization are pure functions of (seed, flow, seq) — no draw
      // anywhere (including other flows') can shift them.
      Rng txRng(packetSeed(scenario_, ev.flowId, ev.seq, kTxStream));
      platform::RxJob job;
      job.id = next + i;  // schedule index: ordered collect == fold order
      job.tag = ev.flowId;
      // The vectorized frontend writes straight into recycled farm buffers,
      // so the worker's release after each decode closes the pool's loop
      // instead of growing it.
      for (auto& buf : job.rx) buf = farm.acquireSampleBuffer();
      dsp::generateTrial(scenario_.modem, packetChannel(scenario_, flow, ev),
                         txRng, golden[i], job.rx, scratch);
      // The deadline in cycles: a decode that alone would blow the frame
      // budget stops at kMaxCycles instead of simulating on — the watchdog
      // budget path enforces the deadline inside the decode.
      job.maxCycles = usToCycles(flow.deadlineUs);
      farm.submit(std::move(job));
    }
    farm.collectInto(outs);
    ADRES_CHECK(outs.size() == n, "cell: short collect");
    for (std::size_t i = 0; i < n; ++i) {
      ADRES_CHECK(outs[i].id == next + i, "cell: outcome out of order");
      fold(schedule_[next + i], golden[i], outs[i]);
    }
    farm.recycleOutcomes(outs);
    next += n;
  }

  totals_.makespanUs = 0.0;
  double busy = 0.0;
  for (std::size_t s = 0; s < serverFreeUs_.size(); ++s) {
    totals_.makespanUs = std::max(totals_.makespanUs, serverFreeUs_[s]);
    busy += serverBusyUs_[s];
  }
  const double span =
      std::max(totals_.makespanUs, scenario_.durationUs) *
      static_cast<double>(scenario_.numServers);
  totals_.utilization = span > 0 ? busy / span : 0.0;
  return totals_;
}

void CellScheduler::fold(const PacketEvent& ev, const std::vector<u8>& golden,
                         const platform::RxOutcome& out) {
  const UserFlow& flow = flows_[ev.flowId];
  FlowStats& fs = *flowStats_[ev.flowId];
  obs::LogLinearHistogram& classHist =
      *classLatencyNs_[static_cast<std::size_t>(flow.classIdx)];
  const double arrival = ev.arrivalUs;
  const double deadline = arrival + flow.deadlineUs;

  // Earliest-free simulated server, lowest index on ties (deterministic).
  std::size_t s = 0;
  for (std::size_t i = 1; i < serverFreeUs_.size(); ++i)
    if (serverFreeUs_[i] < serverFreeUs_[s]) s = i;
  const double start = std::max(arrival, serverFreeUs_[s]);

  fs.offered.fetch_add(1, std::memory_order_relaxed);
  ++totals_.offered;

  double latencyUs = 0.0;
  if (start >= deadline) {
    // Every server is busy past the frame budget: drop without service.
    // The recorded sample is the give-up wait (>= deadline), so the
    // latency histogram's countAbove(deadline) sees the drop too.
    latencyUs = start - arrival;
    fs.missedExpired.fetch_add(1, std::memory_order_relaxed);
    ++totals_.missedExpired;
  } else {
    const double serviceUs = cyclesToUs(out.result.cycles);
    const double completion = start + serviceUs;
    serverFreeUs_[s] = completion;
    serverBusyUs_[s] += serviceUs;
    latencyUs = completion - arrival;
    if (out.result.stop == StopReason::kMaxCycles) {
      // The per-job cycle budget fired: by construction service alone
      // >= the frame budget, so this is a miss however long the wait was.
      fs.missedOverrun.fetch_add(1, std::memory_order_relaxed);
      ++totals_.missedOverrun;
    } else if (completion > deadline) {
      fs.missedLate.fetch_add(1, std::memory_order_relaxed);
      ++totals_.missedLate;
    } else if (!out.result.halted() || !out.result.detected ||
               out.result.bits.size() != golden.size()) {
      fs.errors.fetch_add(1, std::memory_order_relaxed);
      ++totals_.errors;
    } else {
      const int be = dsp::bitErrors(out.result.bits, golden);
      fs.bitErrors.fetch_add(static_cast<u64>(be), std::memory_order_relaxed);
      if (be != 0) {
        fs.errors.fetch_add(1, std::memory_order_relaxed);
        ++totals_.errors;
      } else {
        fs.delivered.fetch_add(1, std::memory_order_relaxed);
        fs.goodputBits.fetch_add(golden.size(), std::memory_order_relaxed);
        goodputBits_.fetch_add(golden.size(), std::memory_order_relaxed);
        ++totals_.delivered;
      }
    }
  }

  const u64 latencyNs = static_cast<u64>(std::llround(latencyUs * 1000.0));
  fs.latencySumNs.fetch_add(latencyNs, std::memory_order_relaxed);
  fs.latencyNs.record(latencyNs);
  classHist.record(latencyNs);
  folded_.fetch_add(1, std::memory_order_relaxed);
  simTimeNs_.store(static_cast<u64>(std::llround(arrival * 1000.0)),
                   std::memory_order_relaxed);
}

obs::HistogramSnapshot CellScheduler::latencySnapshot() const {
  obs::HistogramSnapshot merged;
  for (const auto& fs : flowStats_) merged.merge(fs->latencyNs.snapshot());
  return merged;
}

obs::HistogramSnapshot CellScheduler::classLatencySnapshot(int classIdx) const {
  return classLatencyNs_[static_cast<std::size_t>(classIdx)]->snapshot();
}

void CellScheduler::registerMetrics(obs::MetricsRegistry& reg) const {
  reg.addGauge("adres_cell_servers", "simulated 400 MHz baseband processors",
               [this] { return static_cast<double>(scenario_.numServers); });
  reg.addGauge("adres_cell_flows", "instantiated user flows",
               [this] { return static_cast<double>(flows_.size()); });
  reg.addGauge("adres_cell_sim_time_us",
               "simulated time reached by the DES fold",
               [this] { return simTimeUs(); });
  reg.addCounter("adres_cell_packets_total", "packets folded through the DES",
                 [this] { return static_cast<double>(packetsFolded()); });
  reg.addCounter("adres_cell_delivered_total",
                 "packets decoded bit-exact within their frame budget",
                 [this] {
                   u64 n = 0;
                   for (const auto& fs : flowStats_) n += relaxed(fs->delivered);
                   return static_cast<double>(n);
                 });
  reg.addCounter("adres_cell_errors_total",
                 "packets on time but decode-failed (channel errors)",
                 [this] {
                   u64 n = 0;
                   for (const auto& fs : flowStats_) n += relaxed(fs->errors);
                   return static_cast<double>(n);
                 });
  reg.addCounter("adres_cell_deadline_miss_total",
                 "packets dropped for missing their frame budget "
                 "(late + expired + budget overruns)",
                 [this] {
                   u64 n = 0;
                   for (const auto& fs : flowStats_) n += fs->missed();
                   return static_cast<double>(n);
                 });
  reg.addGauge("adres_cell_deadline_miss_rate",
               "deadline misses / offered packets",
               [this] {
                 u64 off = 0, miss = 0;
                 for (const auto& fs : flowStats_) {
                   off += relaxed(fs->offered);
                   miss += fs->missed();
                 }
                 return off ? static_cast<double>(miss) /
                                  static_cast<double>(off)
                            : 0.0;
               });
  reg.addGauge("adres_cell_goodput_mbps",
               "delivered payload bits / scenario duration",
               [this] {
                 return scenario_.durationUs > 0
                            ? static_cast<double>(goodputBits()) /
                                  scenario_.durationUs
                            : 0.0;
               });
  // The SLO engine's deadline_miss_rate(us) source: simulated latency in
  // ns, scaled to µs at export — preferred over the farm's host-latency
  // summary whenever cell packets have been recorded (obs/slo.cpp).
  reg.addSummary("adres_cell_latency_us",
                 "simulated enqueue-to-decode-complete latency",
                 1e-3 /* ns -> us */, [this] { return latencySnapshot(); });
  for (std::size_t c = 0; c < scenario_.classes.size(); ++c) {
    reg.addSummary("adres_cell_class_latency_us",
                   "simulated latency by flow class", 1e-3,
                   [this, c] { return classLatencySnapshot(static_cast<int>(c)); },
                   obs::Labels{{"class", scenario_.classes[c].name}});
  }
  // Per-flow QoS families: the key set is the (runtime-sized) flow table.
  const auto flowLabels = [this](u32 id) {
    return obs::Labels{
        {"flow", std::to_string(id)},
        {"class", scenario_.classes[static_cast<std::size_t>(
                                        flows_[id].classIdx)]
                      .name}};
  };
  reg.addCounterFamily(
      "adres_cell_flow_offered", "packets offered by flow", [this, flowLabels] {
        std::vector<std::pair<obs::Labels, double>> out;
        for (const UserFlow& f : flows_)
          out.push_back({flowLabels(f.id),
                         static_cast<double>(relaxed(flowStats_[f.id]->offered))});
        return out;
      });
  reg.addCounterFamily(
      "adres_cell_flow_missed", "deadline misses by flow", [this, flowLabels] {
        std::vector<std::pair<obs::Labels, double>> out;
        for (const UserFlow& f : flows_)
          out.push_back({flowLabels(f.id),
                         static_cast<double>(flowStats_[f.id]->missed())});
        return out;
      });
  reg.addGaugeFamily(
      "adres_cell_flow_miss_rate", "deadline-miss fraction by flow",
      [this, flowLabels] {
        std::vector<std::pair<obs::Labels, double>> out;
        for (const UserFlow& f : flows_)
          out.push_back({flowLabels(f.id), flowStats_[f.id]->missRate()});
        return out;
      });
  reg.addGaugeFamily(
      "adres_cell_flow_goodput_kbps", "delivered payload rate by flow",
      [this, flowLabels] {
        std::vector<std::pair<obs::Labels, double>> out;
        for (const UserFlow& f : flows_)
          out.push_back(
              {flowLabels(f.id),
               scenario_.durationUs > 0
                   ? static_cast<double>(
                         relaxed(flowStats_[f.id]->goodputBits)) *
                         1e3 / scenario_.durationUs
                   : 0.0});
        return out;
      });
  reg.addGaugeFamily(
      "adres_cell_flow_snr_db", "per-flow SNR at scenario start",
      [this, flowLabels] {
        std::vector<std::pair<obs::Labels, double>> out;
        for (const UserFlow& f : flows_)
          out.push_back({flowLabels(f.id), flowSnr0Db_[f.id]});
        return out;
      });
}

void CellScheduler::writeSummary(std::ostream& os) const {
  const obs::HistogramSnapshot cellLat = latencySnapshot();
  os << "{\n";
  os << "  \"schema\": \"adres.cell.v1\",\n";
  os << "  \"scenarioHash\": \"" << hex64(stableHash(scenario_)) << "\",\n";
  os << "  \"seed\": " << scenario_.seed << ",\n";
  os << "  \"servers\": " << scenario_.numServers << ",\n";
  os << "  \"durationUs\": " << fmtDouble(scenario_.durationUs) << ",\n";
  os << "  \"mod\": " << static_cast<int>(scenario_.modem.mod)
     << ", \"numSymbols\": " << scenario_.modem.numSymbols << ",\n";
  os << "  \"flows\": " << flows_.size()
     << ", \"packets\": " << schedule_.size() << ",\n";
  os << "  \"offered\": " << totals_.offered
     << ", \"delivered\": " << totals_.delivered
     << ", \"errors\": " << totals_.errors
     << ", \"missedLate\": " << totals_.missedLate
     << ", \"missedExpired\": " << totals_.missedExpired
     << ", \"missedOverrun\": " << totals_.missedOverrun << ",\n";
  os << "  \"missRate\": " << fmtDouble(totals_.missRate())
     << ", \"goodputMbps\": "
     << fmtDouble(totals_.goodputMbps(scenario_, goodputBits()))
     << ", \"makespanUs\": " << fmtDouble(totals_.makespanUs)
     << ", \"utilization\": " << fmtDouble(totals_.utilization) << ",\n";
  os << "  \"latencyP50Us\": " << fmtDouble(cellLat.quantile(0.5) * 1e-3)
     << ", \"latencyP99Us\": " << fmtDouble(cellLat.quantile(0.99) * 1e-3)
     << ",\n";
  os << "  \"perFlow\": [";
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const UserFlow& f = flows_[i];
    const FlowStats& fs = *flowStats_[i];
    const obs::HistogramSnapshot lat = fs.latencyNs.snapshot();
    if (i) os << ",";
    os << "\n    {\"flow\": " << f.id << ", \"class\": \""
       << scenario_.classes[static_cast<std::size_t>(f.classIdx)].name
       << "\", \"distanceM\": " << fmtDouble(f.distanceM)
       << ", \"snrDb\": " << fmtDouble(flowSnr0Db_[i])
       << ", \"deadlineUs\": " << fmtDouble(f.deadlineUs) << ",\n"
       << "     \"offered\": " << relaxed(fs.offered)
       << ", \"delivered\": " << relaxed(fs.delivered)
       << ", \"errors\": " << relaxed(fs.errors)
       << ", \"missedLate\": " << relaxed(fs.missedLate)
       << ", \"missedExpired\": " << relaxed(fs.missedExpired)
       << ", \"missedOverrun\": " << relaxed(fs.missedOverrun)
       << ", \"bitErrors\": " << relaxed(fs.bitErrors) << ",\n"
       << "     \"missRate\": " << fmtDouble(fs.missRate())
       << ", \"goodputBits\": " << relaxed(fs.goodputBits)
       << ", \"latencySumNs\": " << relaxed(fs.latencySumNs)
       << ", \"latencyP50Us\": " << fmtDouble(lat.quantile(0.5) * 1e-3)
       << ", \"latencyP99Us\": " << fmtDouble(lat.quantile(0.99) * 1e-3)
       << "}";
  }
  os << "\n  ]\n}\n";
}

void CellScheduler::writeSummaryFile(const std::string& path) const {
  ADRES_CHECK(
      writeFileAtomic(path, [&](std::ostream& os) { writeSummary(os); }),
      "cannot write cell summary '" << path << '\'');
}

bool CellScheduler::selfCheck(std::string* why) const {
  const auto fail = [&](const std::string& reason) {
    if (why) *why = reason;
    return false;
  };
  u64 offered = 0, delivered = 0, errors = 0;
  u64 late = 0, expired = 0, overrun = 0, histCount = 0;
  for (std::size_t i = 0; i < flowStats_.size(); ++i) {
    const FlowStats& fs = *flowStats_[i];
    const u64 off = relaxed(fs.offered);
    const u64 parts = relaxed(fs.delivered) + relaxed(fs.errors) +
                      relaxed(fs.missedLate) + relaxed(fs.missedExpired) +
                      relaxed(fs.missedOverrun);
    if (off != parts)
      return fail("flow " + std::to_string(i) +
                  ": offered != delivered+errors+missed (" +
                  std::to_string(off) + " vs " + std::to_string(parts) + ")");
    if (fs.latencyNs.count() != off)
      return fail("flow " + std::to_string(i) +
                  ": latency samples != offered");
    offered += off;
    delivered += relaxed(fs.delivered);
    errors += relaxed(fs.errors);
    late += relaxed(fs.missedLate);
    expired += relaxed(fs.missedExpired);
    overrun += relaxed(fs.missedOverrun);
    histCount += fs.latencyNs.count();
  }
  if (offered != totals_.offered || delivered != totals_.delivered ||
      errors != totals_.errors || late != totals_.missedLate ||
      expired != totals_.missedExpired || overrun != totals_.missedOverrun)
    return fail("flow table does not sum to cell totals");
  if (ran_ && offered != schedule_.size())
    return fail("offered != schedule size");
  if (histCount != offered) return fail("latency samples != offered");
  return true;
}

}  // namespace adres::cell
