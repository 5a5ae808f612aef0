#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

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
}

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
  families_.clear();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot out;
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
  for (const FamilyDef& d : families_) addOnce(d.name, d.help);
  return out;
}

void MetricsRegistry::writePrometheus(std::ostream& os) const {
  snapshot().writePrometheus(os, helpTexts());
}

}  // namespace adres::obs
