#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json_escape.hpp"

namespace adres::obs {
namespace {

double finiteOrZero(double v) { return std::isfinite(v) ? v : 0.0; }

/// Shortest round-trippable-enough representation for the exporters.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", finiteOrZero(v));
  return buf;
}

/// A Prometheus text-format label value: backslash, double quote and line
/// feed become \\, \" and \n, as the format defines; every other byte
/// passes through.
std::string promLabelValue(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// `name` with every non-[a-zA-Z0-9_:] character replaced by '_' (the
/// Prometheus metric-name alphabet; dots in counter names become '_').
std::string promName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string promLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += promName(labels[i].first) + "=\"" +
           promLabelValue(labels[i].second) + '"';
  }
  out += '}';
  return out;
}

std::string promLabelsWith(const Labels& labels, const char* key,
                           const std::string& value) {
  Labels l = labels;
  l.emplace_back(key, value);
  return promLabels(l);
}

void jsonLabels(std::ostream& os, const Labels& labels) {
  os << '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) os << ", ";
    os << '"' << json::escape(labels[i].first) << "\": \""
       << json::escape(labels[i].second) << '"';
  }
  os << '}';
}

/// Power-of-two raw-unit bucket bounds covering the snapshot's [min, max];
/// bounds align with the log-linear decade boundaries, so no histogram
/// bucket ever straddles one.  Capped at 24 lines by widening the stride.
std::vector<u64> histBounds(const HistogramSnapshot& h) {
  std::vector<u64> bounds;
  if (!h.count) return bounds;
  int kLo = 0;
  while (kLo < 63 && (1ull << (kLo + 1)) <= std::max<u64>(h.min, 1)) ++kLo;
  int kHi = kLo;
  while (kHi < 63 && (1ull << kHi) <= h.max) ++kHi;
  int stride = 1;
  while ((kHi - kLo) / stride + 1 > 24) ++stride;
  for (int k = kLo; k <= kHi; k += stride) bounds.push_back(1ull << k);
  return bounds;
}

/// Count of recorded values below raw bound `b` (a power of two, so it falls
/// exactly on a bucket edge of the log-linear layout).
u64 histCumBelow(const HistogramSnapshot& h, u64 b) {
  if (h.buckets.empty() || b == 0) return 0;
  const std::size_t last = LogLinearHistogram::bucketIndex(b - 1);
  u64 cum = 0;
  for (std::size_t i = 0; i <= last && i < h.buckets.size(); ++i)
    cum += h.buckets[i];
  return cum;
}

}  // namespace

void MetricsSnapshot::writePrometheus(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& help) const {
  const auto helpFor = [&](const std::string& name) -> const std::string* {
    for (const auto& [n, h] : help)
      if (n == name) return &h;
    return nullptr;
  };

  std::string family;
  for (const MetricSample& s : samples) {
    const std::string name = promName(s.name);
    if (name != family) {
      family = name;
      if (const std::string* h = helpFor(s.name)) {
        os << "# HELP " << name << ' ' << *h << '\n';
      }
      os << "# TYPE " << name << ' '
         << (s.type == MetricType::kCounter ? "counter" : "gauge") << '\n';
    }
    os << name << promLabels(s.labels) << ' ' << fmt(s.value) << '\n';
  }
  for (const SummarySample& s : summaries) {
    const std::string name = promName(s.name);
    if (const std::string* h = helpFor(s.name)) {
      os << "# HELP " << name << ' ' << *h << '\n';
    }
    os << "# TYPE " << name << " summary\n";
    for (std::size_t q = 0; q < std::size(kSummaryQuantiles); ++q) {
      os << name
         << promLabelsWith(s.labels, "quantile", fmt(kSummaryQuantiles[q]))
         << ' ' << fmt(s.hist.quantile(kSummaryQuantiles[q]) * s.scale) << '\n';
    }
    os << name << "_sum" << promLabels(s.labels) << ' '
       << fmt(static_cast<double>(s.hist.sum) * s.scale) << '\n';
    os << name << "_count" << promLabels(s.labels) << ' '
       << fmt(static_cast<double>(s.hist.count)) << '\n';
  }
  for (const HistogramSample& s : histograms) {
    const std::string name = promName(s.name);
    if (const std::string* h = helpFor(s.name)) {
      os << "# HELP " << name << ' ' << *h << '\n';
    }
    os << "# TYPE " << name << " histogram\n";
    for (const u64 b : histBounds(s.hist)) {
      os << name << "_bucket"
         << promLabelsWith(s.labels, "le",
                           fmt(static_cast<double>(b) * s.scale))
         << ' ' << histCumBelow(s.hist, b) << '\n';
    }
    os << name << "_bucket" << promLabelsWith(s.labels, "le", "+Inf") << ' '
       << s.hist.count << '\n';
    os << name << "_sum" << promLabels(s.labels) << ' '
       << fmt(static_cast<double>(s.hist.sum) * s.scale) << '\n';
    os << name << "_count" << promLabels(s.labels) << ' '
       << fmt(static_cast<double>(s.hist.count)) << '\n';
  }
}

void MetricsSnapshot::writeJson(std::ostream& os) const {
  os << "{\n  \"schema\": \"adres.metrics.v1\",\n"
     << "  \"sequence\": " << sequence << ",\n"
     << "  \"uptime_ms\": " << fmt(uptimeMs) << ",\n  \"metrics\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    os << (i ? ",\n" : "\n") << "    {\"name\": \"" << json::escape(s.name)
       << "\", \"type\": \""
       << (s.type == MetricType::kCounter ? "counter" : "gauge")
       << "\", \"labels\": ";
    jsonLabels(os, s.labels);
    os << ", \"value\": " << fmt(s.value) << '}';
  }
  os << "\n  ],\n  \"summaries\": [";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const SummarySample& s = summaries[i];
    os << (i ? ",\n" : "\n") << "    {\"name\": \"" << json::escape(s.name)
       << "\", \"labels\": ";
    jsonLabels(os, s.labels);
    os << ", \"count\": " << s.hist.count << ", \"sum\": "
       << fmt(static_cast<double>(s.hist.sum) * s.scale)
       << ", \"min\": " << fmt(static_cast<double>(s.hist.min) * s.scale)
       << ", \"max\": " << fmt(static_cast<double>(s.hist.max) * s.scale)
       << ", \"mean\": " << fmt(s.hist.mean() * s.scale);
    for (std::size_t q = 0; q < std::size(kSummaryQuantiles); ++q) {
      os << ", \"" << kSummaryQuantileNames[q] << "\": "
         << fmt(s.hist.quantile(kSummaryQuantiles[q]) * s.scale);
    }
    os << '}';
  }
  os << "\n  ],\n  \"histograms\": [";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& s = histograms[i];
    os << (i ? ",\n" : "\n") << "    {\"name\": \"" << json::escape(s.name)
       << "\", \"labels\": ";
    jsonLabels(os, s.labels);
    os << ", \"count\": " << s.hist.count << ", \"sum\": "
       << fmt(static_cast<double>(s.hist.sum) * s.scale)
       << ", \"min\": " << fmt(static_cast<double>(s.hist.min) * s.scale)
       << ", \"max\": " << fmt(static_cast<double>(s.hist.max) * s.scale)
       << ", \"mean\": " << fmt(s.hist.mean() * s.scale) << '}';
  }
  os << "\n  ]\n}\n";
}

MetricsRegistry::MetricsRegistry() : start_(std::chrono::steady_clock::now()) {}

void MetricsRegistry::addCounter(std::string name, std::string help,
                                 std::function<double()> fn, Labels labels) {
  std::lock_guard<std::mutex> lk(mu_);
  scalars_.push_back({std::move(name), std::move(help), MetricType::kCounter,
                      std::move(labels), std::move(fn)});
}

void MetricsRegistry::addGauge(std::string name, std::string help,
                               std::function<double()> fn, Labels labels) {
  std::lock_guard<std::mutex> lk(mu_);
  scalars_.push_back({std::move(name), std::move(help), MetricType::kGauge,
                      std::move(labels), std::move(fn)});
}

void MetricsRegistry::addSummary(std::string name, std::string help,
                                 double scale,
                                 std::function<HistogramSnapshot()> fn,
                                 Labels labels) {
  std::lock_guard<std::mutex> lk(mu_);
  summaries_.push_back(
      {std::move(name), std::move(help), std::move(labels), scale, std::move(fn)});
}

void MetricsRegistry::addHistogram(std::string name, std::string help,
                                   double scale,
                                   std::function<HistogramSnapshot()> fn,
                                   Labels labels) {
  std::lock_guard<std::mutex> lk(mu_);
  histograms_.push_back({std::move(name), std::move(help), std::move(labels),
                         scale, std::move(fn)});
}

void MetricsRegistry::addCounterFamily(std::string name, std::string help,
                                       FamilyFn fn) {
  std::lock_guard<std::mutex> lk(mu_);
  families_.push_back(
      {std::move(name), std::move(help), MetricType::kCounter, std::move(fn)});
}

void MetricsRegistry::addGaugeFamily(std::string name, std::string help,
                                     FamilyFn fn) {
  std::lock_guard<std::mutex> lk(mu_);
  families_.push_back(
      {std::move(name), std::move(help), MetricType::kGauge, std::move(fn)});
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  scalars_.clear();
  summaries_.clear();
  histograms_.clear();
  families_.clear();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot out;
  out.sequence = ++sequence_;
  out.uptimeMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
  out.samples.reserve(scalars_.size());
  for (const ScalarDef& d : scalars_)
    out.samples.push_back({d.name, d.type, d.labels, finiteOrZero(d.fn())});
  for (const FamilyDef& d : families_) {
    for (auto& [labels, value] : d.fn())
      out.samples.push_back({d.name, d.type, std::move(labels),
                             finiteOrZero(value)});
  }
  // Name-ordered so Prometheus families are contiguous; stable within a
  // family (registration order).
  std::stable_sort(out.samples.begin(), out.samples.end(),
                   [](const MetricSample& a, const MetricSample& b) {
                     return a.name < b.name;
                   });
  out.summaries.reserve(summaries_.size());
  for (const SummaryDef& d : summaries_)
    out.summaries.push_back({d.name, d.labels, d.scale, d.fn()});
  std::stable_sort(out.summaries.begin(), out.summaries.end(),
                   [](const SummarySample& a, const SummarySample& b) {
                     return a.name < b.name;
                   });
  out.histograms.reserve(histograms_.size());
  for (const HistogramDef& d : histograms_)
    out.histograms.push_back({d.name, d.labels, d.scale, d.fn()});
  std::stable_sort(out.histograms.begin(), out.histograms.end(),
                   [](const HistogramSample& a, const HistogramSample& b) {
                     return a.name < b.name;
                   });
  return out;
}

std::vector<std::pair<std::string, std::string>> MetricsRegistry::helpTexts()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  const auto addOnce = [&](const std::string& name, const std::string& help) {
    for (const auto& [n, h] : out)
      if (n == name) return;
    out.emplace_back(name, help);
  };
  for (const ScalarDef& d : scalars_) addOnce(d.name, d.help);
  for (const SummaryDef& d : summaries_) addOnce(d.name, d.help);
  for (const HistogramDef& d : histograms_) addOnce(d.name, d.help);
  for (const FamilyDef& d : families_) addOnce(d.name, d.help);
  return out;
}

void MetricsRegistry::writePrometheus(std::ostream& os) const {
  snapshot().writePrometheus(os, helpTexts());
}

void MetricsRegistry::writeJson(std::ostream& os) const {
  snapshot().writeJson(os);
}

}  // namespace adres::obs
