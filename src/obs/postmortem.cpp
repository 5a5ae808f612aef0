#include "obs/postmortem.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/json_escape.hpp"
#include "common/json_min.hpp"
#include "obs/buildinfo.hpp"

namespace adres::obs {
namespace {

void writeDecodeSummary(const DecodeSummary& r, std::ostream& os,
                        const char* pad) {
  os << "{\n" << pad << "  \"detected\": " << (r.detected ? "true" : "false")
     << ",\n" << pad << "  \"ltf_start\": " << r.ltfStart << ",\n"
     << pad << "  \"stop\": \"" << json::escape(r.stop) << "\",\n"
     << pad << "  \"cycles\": " << r.cycles << ",\n"
     << pad << "  \"total_ops\": " << r.totalOps << ",\n"
     << pad << "  \"bits\": \"";
  for (const u8 b : r.bits) os << (b ? '1' : '0');
  os << "\",\n" << pad << "  \"regions\": [";
  std::size_t i = 0;
  for (const auto& [id, p] : r.regions) {
    os << (i++ ? ",\n" : "\n") << pad << "    {\"id\": " << id
       << ", \"cycles\": " << p.cycles << ", \"vliw_cycles\": " << p.vliwCycles
       << ", \"cga_cycles\": " << p.cgaCycles << ", \"ops\": " << p.ops
       << ", \"vliw_ops\": " << p.vliwOps << ", \"cga_ops\": " << p.cgaOps
       << ", \"entries\": " << p.entries << '}';
  }
  os << "\n" << pad << "  ]\n" << pad << '}';
}

void writeRx(const std::vector<cint16>& rx, std::ostream& os) {
  os << '[';
  for (std::size_t i = 0; i < rx.size(); ++i)
    os << (i ? "," : "") << rx[i].re << ',' << rx[i].im;
  os << ']';
}

DecodeSummary parseDecodeSummary(const json::JsonValue& v) {
  DecodeSummary r;
  r.detected = v.get<bool>("detected");
  r.ltfStart = v.get<u32>("ltf_start");
  r.stop = v.get<std::string>("stop");
  r.cycles = v.get<u64>("cycles");
  r.totalOps = v.get<u64>("total_ops");
  const std::string bits = v.get<std::string>("bits");
  r.bits.reserve(bits.size());
  for (const char c : bits) {
    ADRES_CHECK(c == '0' || c == '1', "bits must be a string of 0s and 1s");
    r.bits.push_back(c == '1' ? 1 : 0);
  }
  for (const json::JsonValue& rv :
       v.at("regions", json::JsonValue::kArray).array) {
    RegionProfile p;
    p.cycles = rv.get<u64>("cycles");
    p.vliwCycles = rv.get<u64>("vliw_cycles");
    p.cgaCycles = rv.get<u64>("cga_cycles");
    p.ops = rv.get<u64>("ops");
    p.vliwOps = rv.get<u64>("vliw_ops");
    p.cgaOps = rv.get<u64>("cga_ops");
    p.entries = rv.get<u64>("entries");
    r.regions[rv.get<int>("id")] = p;
  }
  return r;
}

std::vector<cint16> parseRx(const json::JsonValue& v) {
  ADRES_CHECK(v.type == json::JsonValue::kArray && v.array.size() % 2 == 0,
              "each rx stream must be an array of even length");
  std::vector<cint16> out;
  out.reserve(v.array.size() / 2);
  for (std::size_t i = 0; i < v.array.size(); i += 2)
    out.push_back({v.array[i].as<i16>("rx"), v.array[i + 1].as<i16>("rx")});
  return out;
}

}  // namespace

void writePostmortemJson(const PostmortemBundle& b, std::ostream& os,
                         const MetricsRegistry* metrics) {
  os << "{\n  \"schema\": \"adres.postmortem.v1\",\n"
     << "  \"trigger\": \"" << json::escape(b.trigger) << "\",\n"
     << "  \"reason\": \"" << json::escape(b.reason) << "\",\n"
     << "  \"job_id\": " << b.jobId << ",\n  \"tag\": " << b.tag
     << ",\n  \"worker\": " << b.worker << ",\n  \"trace_id\": \""
     << hex64(b.traceId) << "\",\n  \"config\": {\n"
     << "    \"modulation\": " << b.modulation
     << ",\n    \"num_symbols\": " << b.numSymbols
     << ",\n    \"exec_tier\": \"" << json::escape(b.execTier)
     << "\",\n    \"shadow_tier\": \"" << json::escape(b.shadowTier)
     << "\",\n    \"max_cycles\": " << b.maxCycles
     << ",\n    \"fault_inject_seed\": \"" << hex64(b.faultInjectSeed)
     << "\"\n  },\n  \"rx\": [\n    ";
  writeRx(b.rx[0], os);
  os << ",\n    ";
  writeRx(b.rx[1], os);
  os << "\n  ],\n  \"primary\": ";
  writeDecodeSummary(b.primary, os, "  ");
  os << ",\n  \"shadow\": ";
  if (b.shadow) {
    writeDecodeSummary(*b.shadow, os, "  ");
  } else {
    os << "null";
  }
  os << ",\n  \"buildinfo\": ";
  {
    std::ostringstream bi;
    writeBuildInfoJson(bi);
    std::string s = bi.str();
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    os << s;
  }
  if (metrics) {
    std::ostringstream ms;
    metrics->writePrometheus(ms);
    os << ",\n  \"metrics\": \"" << json::escape(ms.str()) << '"';
  }
  os << "\n}\n";
}

PostmortemBundle loadPostmortemBundle(const std::string& path) {
  std::ifstream in(path);
  ADRES_CHECK(in.good(), "cannot open postmortem bundle '" << path << '\'');
  std::ostringstream buf;
  buf << in.rdbuf();
  json::JsonValue root = json::JsonParser(buf.str()).parse();
  ADRES_CHECK(root.hasKey("schema") &&
                  root.at("schema").str == "adres.postmortem.v1",
              "'" << path << "' is not an adres.postmortem.v1 bundle");

  PostmortemBundle b;
  b.trigger = root.get<std::string>("trigger");
  b.reason = root.get<std::string>("reason");
  b.jobId = root.get<u64>("job_id");
  b.tag = root.get<u32>("tag");
  b.worker = root.get<int>("worker");
  b.traceId = parseHex64(root.get<std::string>("trace_id"));

  const json::JsonValue& cfg = root.at("config", json::JsonValue::kObject);
  b.modulation = cfg.get<int>("modulation");
  b.numSymbols = cfg.get<int>("num_symbols");
  b.execTier = cfg.get<std::string>("exec_tier");
  b.shadowTier = cfg.get<std::string>("shadow_tier");
  b.maxCycles = cfg.get<u64>("max_cycles");
  b.faultInjectSeed = parseHex64(cfg.get<std::string>("fault_inject_seed"));

  const json::JsonValue& rx = root.at("rx", json::JsonValue::kArray);
  ADRES_CHECK(rx.array.size() == 2, "bundle rx must hold two antenna streams");
  b.rx[0] = parseRx(rx.array[0]);
  b.rx[1] = parseRx(rx.array[1]);

  b.primary = parseDecodeSummary(root.at("primary", json::JsonValue::kObject));
  if (root.at("shadow").type != json::JsonValue::kNull)
    b.shadow = parseDecodeSummary(root.at("shadow", json::JsonValue::kObject));
  return b;
}

PostmortemWriter::PostmortemWriter(PostmortemConfig cfg) : cfg_(std::move(cfg)) {
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
}

std::string PostmortemWriter::write(const PostmortemBundle& b) {
  // One sequence for the whole process, so writers that share a directory
  // (one farm per bench_farm row) never reuse a file name.
  static std::atomic<u64> fileSeq{0};
  const std::string path =
      cfg_.dir + "/postmortem_" + hex64(b.traceId) + "_" +
      std::to_string(fileSeq.fetch_add(1, std::memory_order_relaxed)) +
      ".json";
  // Written outside the lock: the embedded metrics snapshot may read
  // written() through a registered getter.
  if (!writeFileAtomic(path, [&](std::ostream& os) {
        writePostmortemJson(b, os, cfg_.metrics);
      }))
    return "";
  std::lock_guard<std::mutex> lk(mu_);
  if (cfg_.maxBundles && paths_.size() >= cfg_.maxBundles) {
    std::error_code ec;
    std::filesystem::remove(paths_.front(), ec);
    paths_.erase(paths_.begin());
    ++evicted_;
  }
  paths_.push_back(path);
  ++written_;
  return path;
}

std::vector<std::string> PostmortemWriter::paths() const {
  std::lock_guard<std::mutex> lk(mu_);
  return paths_;
}

u64 PostmortemWriter::written() const {
  std::lock_guard<std::mutex> lk(mu_);
  return written_;
}

u64 PostmortemWriter::evicted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return evicted_;
}

}  // namespace adres::obs
