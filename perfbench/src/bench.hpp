// Shared vocabulary of the whole-receiver benchmark: metric reports, the
// span recorder of traced runs, sample statistics and the workload
// interface every workload implements.
#pragma once

#include <array>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "dsp/modem.hpp"
#include "platform/packet_farm.hpp"

namespace perfbench {

using adres::u64;
using adres::u8;
using Clock = std::chrono::steady_clock;
using RxWave = std::array<std::vector<adres::cint16>, 2>;

inline double usSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Folds a value into a running fingerprint.
inline u64 mixIn(u64 h, u64 v) { return adres::hashCombine(h, v); }
inline u64 mixIn(u64 h, double v) {
  u64 bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return adres::hashCombine(h, bits);
}
u64 mixIn(u64 h, const std::vector<u8>& bytes);
u64 mixIn(u64 h, const RxWave& rx);

/// Named metrics with units, kept in insertion order.
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
  };
  void add(std::string name, std::string unit, double value);
  /// The value of `name`; throws if the metric was never added.
  double get(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// In-memory span log of a traced run: one record per call into a layer,
/// timed around the call from the benchmark's side.  Spans of one packet
/// or batch share `group`; `parent` is the index of the enclosing span.
/// When off, begin/end cost one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    u64 group = 0;
    double startUs = 0;
    double endUs = 0;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  int begin(const char* name, u64 group = 0);
  void end(int idx);

  class Scope {
   public:
    Scope(Tracer& t, const char* name, u64 group = 0)
        : t_(t), idx_(t.begin(name, group)) {}
    ~Scope() { t_.end(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_;
  };

  /// Durations (µs) of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Summed µs of the top-level spans opened at or after index `from`.
  double topLevelUs(std::size_t from) const;
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON of every span.
  void writeJson(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// Host-time samples of one measured pass (every packet of every round).
struct PassSamples {
  struct Round {
    double packetsPerS = 0;
    double mcyclesPerS = 0;
    std::size_t firstSample = 0;  ///< this round's packets in latencyUs
    std::size_t endSample = 0;
  };
  std::vector<Round> rounds;
  std::vector<double> latencyUs;    ///< submit -> decoded, per packet
  std::vector<double> queueWaitUs;  ///< submit -> worker dispatch
  std::vector<double> decodeUs;     ///< worker dispatch -> decoded
  double backpressureUs = 0;        ///< submitter blocked on a full queue
  double wallUs = 0;                ///< summed round wall time
  double spannedUs = 0;             ///< part of wallUs inside top-level spans
  u64 packets = 0;
  u64 checkFailures = 0;
};

/// Host speed of a pass over its quiet rounds: the fifth of rounds with the
/// highest packet rate (at least one).  Neighbours on a shared host only
/// ever slow a round down, by up to half and for many seconds at a time
/// here, so the fast rounds are the ones that measure the program.  Each
/// figure is the median over the quiet rounds of that round's value, so a
/// burst of interference inside one quiet round does not move it.
struct QuietHost {
  double packetsPerS = 0;
  double mcyclesPerS = 0;
  double latencyP50Us = 0;
  std::size_t rounds = 0;
  std::size_t samples = 0;  ///< packets in the quiet rounds
};
QuietHost quietHost(const PassSamples& s);

/// Per-packet queue wait and decode time of a 1-worker farm, taken on the
/// worker thread by the farm's pre-decode hook, so drivers that never see
/// the outcomes (the cell scheduler folds them itself) are measured the same
/// way as the rest: between two dispatches the farm's live histogram sums
/// grow by exactly the previous packet's values.  flush() closes the last
/// packet once its outcome has been collected.
class FarmSampler {
 public:
  /// The hook to install as FarmConfig::preDecodeHook (the sampler must
  /// outlive the farm).
  std::function<void(int, const adres::platform::RxJob&)> hook();
  /// Starts sampling a new farm.
  void attach(const adres::platform::PacketFarm* farm);
  void flush() { sample(); }
  /// Moves the samples gathered so far into `s`.
  void drainInto(PassSamples& s);

 private:
  void sample();

  const adres::platform::PacketFarm* farm_ = nullptr;
  bool primed_ = false;
  u64 seen_ = 0, latSum_ = 0, qwSum_ = 0;
  std::vector<double> decode_, queueWait_;
};

/// Simulated outcome of one round: identical every time the same round
/// (same index in the workload's cycle) runs, on every run with the same
/// seed, traced or not.
struct RoundSim {
  u64 packets = 0;      ///< decodes run
  u64 delivered = 0;    ///< packets delivered correctly (cell: and on time)
  u64 simCycles = 0;    ///< summed simulated decode cycles
  u64 goodBits = 0;     ///< payload bits of the delivered packets
  double simUs = 0;     ///< simulated µs goodput is counted over
  u64 fingerprint = 0;  ///< hash over every simulated result

  bool operator==(const RoundSim&) const = default;
  RoundSim& operator+=(const RoundSim& o);
  double goodputMbps() const { return simUs > 0 ? static_cast<double>(goodBits) / simUs : 0.0; }
  double successFrac() const {
    return packets ? static_cast<double>(delivered) / static_cast<double>(packets) : 0.0;
  }
};

/// The seeds of one generated trial: payload stream and channel.
struct TrialInput {
  u64 txSeed = 0;
  adres::dsp::ChannelConfig channel;
};

/// Independent per-purpose stream seed derived from the workload seed.
inline u64 streamSeed(u64 seed, u64 label, u64 index = 0) {
  return adres::hashCombine(adres::hashCombine(adres::mix64(seed), label), index);
}

/// One workload: set-up, fixed-work closed-loop rounds, and the
/// workload-specific layer measurements of its traced run.  Inputs are
/// generated from the seed when the workload is made.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual adres::dsp::ModemConfig modem() const = 0;
  /// Hash of the generated inputs (changes with the seed).
  virtual u64 inputFingerprint() const = 0;
  /// Everything from workload entry to the first timed packet: program
  /// mapping, plan build, farm construction, warm-up.  Callable
  /// repeatedly; each call starts from an empty program cache.
  virtual void setup(Tracer& tr) = 0;
  /// Rounds are a cycle of this many distinct units of work; round i runs
  /// unit i % roundsPerCycle().  The simulated metrics cover one cycle.
  virtual std::size_t roundsPerCycle() const { return 1; }
  /// Runs round `index` (fixed work).  Appends host samples to `s` and
  /// counts output-check failures in s.checkFailures.
  virtual RoundSim round(Tracer& tr, PassSamples& s, std::size_t index) = 0;
  /// Workload-specific per-layer metrics from the spans of traced rounds
  /// (zero where the workload does not use the layer).
  virtual void layerMetrics(const Tracer& tr, Report& out) = 0;
  /// Independent output check after all passes; false + reason on failure.
  virtual bool finalCheck(std::string* why) = 0;
  /// Waveforms whose full decodes the simulated per-layer statistics
  /// (per-kernel cycles, mode cycles, memory events) are taken from.
  virtual const std::vector<RxWave>& probes() const = 0;
  /// Trials whose generation the dsp layer metrics time.
  virtual std::vector<TrialInput> trialInputs() const = 0;
};

std::unique_ptr<Workload> makeModemWorkload(u64 seed, bool smoke);
std::unique_ptr<Workload> makeCampaignWorkload(u64 seed, bool smoke);
std::unique_ptr<Workload> makeCellWorkload(u64 seed, bool smoke);

/// Layer measurements shared by every workload (sched, sdr, cga, core, mem,
/// dsp), for the workload's modem configuration and probe packets.
void measureSharedLayers(Workload& w, bool smoke, Report& out);

/// Adds the farm-side platform metrics of a pass.
void addPlatformLayers(const PassSamples& s, Report& out);

/// Where a round started: clock, first sample, first span.
struct RoundStart {
  RoundStart(const Tracer& tr, const PassSamples& s)
      : spanFrom(tr.size()), firstSample(s.latencyUs.size()) {}
  Clock::time_point wall = Clock::now();
  std::size_t spanFrom;
  std::size_t firstSample;
};

/// Closes one round's host accounting: rates, wall and spanned time.
void closeRound(const Tracer& tr, const RoundStart& start, const RoundSim& sim,
                PassSamples& s);

}  // namespace perfbench
