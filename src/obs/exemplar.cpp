#include "obs/exemplar.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "common/atomic_file.hpp"
#include "trace/export.hpp"

namespace adres::obs {
namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void writeExemplarFile(std::ostream& os, const trace::PacketSpans& spans,
                       const std::vector<TraceEvent>& ringEvents,
                       u64 ringAccepted, u64 ringDropped,
                       std::size_t ringCapacity, double latencyUs,
                       double queueWaitUs, u64 simCycles) {
  os << "{\n  \"schema\": \"adres.exemplar.v1\",\n"
     << "  \"trace_id\": \"" << trace::traceIdHex(spans.traceId) << "\",\n"
     << "  \"job_id\": " << spans.jobId << ",\n"
     << "  \"worker\": " << spans.worker << ",\n"
     << "  \"tag\": " << spans.tag << ",\n"
     << "  \"latency_us\": " << fmt(latencyUs) << ",\n"
     << "  \"queue_wait_us\": " << fmt(queueWaitUs) << ",\n"
     << "  \"sim_cycles\": " << simCycles << ",\n  \"spans\": [";
  trace::writeSpanJsonEntries(spans.spans, os, 4);
  os << "\n  ],\n  \"ring\": {\n    \"capacity\": " << ringCapacity
     << ",\n    \"accepted\": " << ringAccepted
     << ",\n    \"dropped\": " << ringDropped << ",\n    \"events\": [";
  trace::writeTraceEventJsonEntries(ringEvents, os, 6);
  os << "\n    ]\n  }\n}\n";
}

}  // namespace

ExemplarStore::ExemplarStore(ExemplarConfig cfg) : cfg_(std::move(cfg)) {
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
}

double ExemplarStore::thresholdUs(const HistogramSnapshot& latencyNs) const {
  if (latencyNs.count < cfg_.minCount)
    return std::numeric_limits<double>::infinity();
  return latencyNs.quantile(cfg_.quantile) * 1e-3;
}

bool ExemplarStore::maybeCapture(const trace::PacketSpans& spans,
                                 const std::vector<TraceEvent>& ringEvents,
                                 u64 ringAccepted, u64 ringDropped,
                                 std::size_t ringCapacity, double latencyUs,
                                 double queueWaitUs, u64 simCycles,
                                 const HistogramSnapshot& latencyNs) {
  if (latencyUs < thresholdUs(latencyNs)) return false;

  // The file is written under the lock (captures are rare tail events), so
  // the record set and the files on disk change together: a failed write
  // leaves both as they were.
  std::lock_guard<std::mutex> lk(mu_);
  const bool full = records_.size() >= cfg_.maxExemplars;
  // Full: only a packet slower than the fastest retained one qualifies.
  if (full && latencyUs <= records_.back().latencyUs) return false;
  const std::string path = cfg_.dir + "/exemplar_" +
                           trace::traceIdHex(spans.traceId) + "_" +
                           std::to_string(fileSeq_) + ".json";
  if (!writeFileAtomic(path, [&](std::ostream& os) {
        writeExemplarFile(os, spans, ringEvents, ringAccepted, ringDropped,
                          ringCapacity, latencyUs, queueWaitUs, simCycles);
      }))
    return false;
  ++fileSeq_;
  if (full) {
    std::error_code ec;
    std::filesystem::remove(records_.back().path, ec);
    records_.pop_back();
    ++evicted_;
  }
  ExemplarRecord rec;
  rec.traceId = spans.traceId;
  rec.jobId = spans.jobId;
  rec.worker = spans.worker;
  rec.latencyUs = latencyUs;
  rec.queueWaitUs = queueWaitUs;
  rec.simCycles = simCycles;
  rec.path = path;
  records_.push_back(rec);
  std::sort(records_.begin(), records_.end(),
            [](const ExemplarRecord& a, const ExemplarRecord& b) {
              return a.latencyUs > b.latencyUs;
            });
  ++captured_;
  return true;
}

std::vector<ExemplarRecord> ExemplarStore::records() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

u64 ExemplarStore::captured() const {
  std::lock_guard<std::mutex> lk(mu_);
  return captured_;
}

u64 ExemplarStore::evicted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return evicted_;
}

}  // namespace adres::obs
