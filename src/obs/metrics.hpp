// MetricsRegistry: the live-metrics hub of the observability layer.
//
// Components register named series — monotonic counters, point-in-time
// gauges, and histogram-backed summaries — as getter callbacks; each
// snapshot() materializes every series into an immutable `MetricsSnapshot`
// that the exporters render as Prometheus text exposition (scraped from the
// embedded MetricsServer) or as a versioned `adres.metrics.v1` JSON
// document.
//
// Threading: every public method takes the registry mutex, so registration,
// snapshotting and clear() may race freely; the getters themselves run
// under that mutex and must only read thread-safe state (atomics, counter
// blocks copied under a lock, histogram snapshot()) — never a live
// simulator's unsynchronized statistics, which only the thread running the
// simulator may read.  clear() is the teardown barrier: once it returns, no
// getter registered before it will run again, so the objects they captured
// may be destroyed.
#pragma once

#include <chrono>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/histogram.hpp"

namespace adres::obs {

/// Pre-rendered label set, e.g. {{"worker","0"}}.  Order is preserved.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge };

/// One scalar series in a snapshot.
struct MetricSample {
  std::string name;
  MetricType type = MetricType::kGauge;
  Labels labels;
  double value = 0.0;
};

/// One histogram-backed summary series in a snapshot (quantiles are derived
/// at export time; `scale` converts recorded raw units into export units,
/// e.g. 1e-3 for nanoseconds recorded / microseconds exported).
struct SummarySample {
  std::string name;
  Labels labels;
  double scale = 1.0;
  HistogramSnapshot hist;
};

/// One histogram series rendered as a native Prometheus histogram:
/// cumulative `_bucket{le="..."}` lines at power-of-two bounds (in export
/// units) covering the recorded range, plus `_sum`/`_count`.
struct HistogramSample {
  std::string name;
  Labels labels;
  double scale = 1.0;
  HistogramSnapshot hist;
};

/// The quantiles every summary exports.
inline constexpr double kSummaryQuantiles[] = {0.5, 0.9, 0.99, 0.999};
inline constexpr const char* kSummaryQuantileNames[] = {"p50", "p90", "p99",
                                                        "p999"};

struct MetricsSnapshot {
  u64 sequence = 0;     ///< snapshot ordinal since registry creation
  double uptimeMs = 0;  ///< host ms since registry creation
  std::vector<MetricSample> samples;
  std::vector<SummarySample> summaries;
  std::vector<HistogramSample> histograms;

  /// Prometheus text exposition format 0.0.4 (counters/gauges as-is,
  /// summaries as quantile series plus _sum/_count).  `help` optionally
  /// supplies per-family HELP lines (family name -> text).
  void writePrometheus(
      std::ostream& os,
      const std::vector<std::pair<std::string, std::string>>& help = {}) const;
  /// Versioned JSON: {"schema":"adres.metrics.v1", ...}.
  void writeJson(std::ostream& os) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();

  /// Registers a monotonic counter series.  `help` is emitted once per
  /// metric family; the family's help text comes from its first
  /// registration.
  void addCounter(std::string name, std::string help,
                  std::function<double()> fn, Labels labels = {});
  /// Registers a point-in-time gauge series.
  void addGauge(std::string name, std::string help, std::function<double()> fn,
                Labels labels = {});
  /// Registers a histogram-backed summary series.
  void addSummary(std::string name, std::string help, double scale,
                  std::function<HistogramSnapshot()> fn, Labels labels = {});

  /// Registers a native Prometheus histogram series (cumulative buckets at
  /// power-of-two bounds).
  void addHistogram(std::string name, std::string help, double scale,
                    std::function<HistogramSnapshot()> fn, Labels labels = {});

  /// A dynamic family: one getter yields the whole (labels, value) series
  /// set per snapshot — for key sets only known at runtime (e.g. the
  /// farm-wide sim counter totals as `adres_sim_counter{name="cga.cycles"}`).
  using FamilyFn = std::function<std::vector<std::pair<Labels, double>>()>;
  void addCounterFamily(std::string name, std::string help, FamilyFn fn);
  void addGaugeFamily(std::string name, std::string help, FamilyFn fn);

  /// Drops every registered series.  Teardown barrier: returns only when no
  /// snapshot is mid-flight, after which captured objects may be destroyed.
  void clear();

  /// Materializes every series.  Series are ordered by name (families
  /// contiguous), registration order within a family.
  MetricsSnapshot snapshot() const;

  /// Help text per family, for the Prometheus exposition.
  std::vector<std::pair<std::string, std::string>> helpTexts() const;

  /// snapshot() + writePrometheus, with family HELP/TYPE headers.
  void writePrometheus(std::ostream& os) const;
  /// snapshot() + writeJson.
  void writeJson(std::ostream& os) const;

 private:
  struct ScalarDef {
    std::string name, help;
    MetricType type;
    Labels labels;
    std::function<double()> fn;
  };
  struct SummaryDef {
    std::string name, help;
    Labels labels;
    double scale;
    std::function<HistogramSnapshot()> fn;
  };
  struct HistogramDef {
    std::string name, help;
    Labels labels;
    double scale;
    std::function<HistogramSnapshot()> fn;
  };
  struct FamilyDef {
    std::string name, help;
    MetricType type;
    FamilyFn fn;
  };

  mutable std::mutex mu_;
  std::vector<ScalarDef> scalars_;
  std::vector<SummaryDef> summaries_;
  std::vector<HistogramDef> histograms_;
  std::vector<FamilyDef> families_;
  mutable u64 sequence_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace adres::obs
