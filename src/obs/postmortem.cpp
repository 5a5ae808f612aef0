#include "obs/postmortem.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "common/json_escape.hpp"
#include "common/json_min.hpp"
#include "obs/buildinfo.hpp"
#include "trace/export.hpp"

namespace adres::obs {
namespace {

u64 hexToU64(const std::string& s) {
  ADRES_CHECK(!s.empty() && s.size() <= 16, "bad hex u64 '" << s << '\'');
  u64 v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<u64>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<u64>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<u64>(c - 'A' + 10);
    else ADRES_CHECK(false, "bad hex digit in '" << s << '\'');
  }
  return v;
}

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
  r.detected = v.at("detected").boolean;
  r.ltfStart = static_cast<u32>(v.at("ltf_start").number);
  r.stop = v.at("stop").str;
  r.cycles = static_cast<u64>(v.at("cycles").number);
  r.totalOps = static_cast<u64>(v.at("total_ops").number);
  const std::string& bits = v.at("bits").str;
  r.bits.reserve(bits.size());
  for (const char c : bits) r.bits.push_back(c == '1' ? 1 : 0);
  for (const json::JsonValue& rv : v.at("regions").array) {
    RegionProfile p;
    p.cycles = static_cast<u64>(rv.at("cycles").number);
    p.vliwCycles = static_cast<u64>(rv.at("vliw_cycles").number);
    p.cgaCycles = static_cast<u64>(rv.at("cga_cycles").number);
    p.ops = static_cast<u64>(rv.at("ops").number);
    p.vliwOps = static_cast<u64>(rv.at("vliw_ops").number);
    p.cgaOps = static_cast<u64>(rv.at("cga_ops").number);
    p.entries = static_cast<u64>(rv.at("entries").number);
    r.regions[static_cast<int>(rv.at("id").number)] = p;
  }
  return r;
}

std::vector<cint16> parseRx(const json::JsonValue& v) {
  ADRES_CHECK(v.array.size() % 2 == 0, "rx sample array length must be even");
  std::vector<cint16> out;
  out.reserve(v.array.size() / 2);
  for (std::size_t i = 0; i < v.array.size(); i += 2) {
    out.push_back({static_cast<i16>(v.array[i].number),
                   static_cast<i16>(v.array[i + 1].number)});
  }
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
     << trace::traceIdHex(b.traceId) << "\",\n  \"config\": {\n"
     << "    \"modulation\": " << b.modulation
     << ",\n    \"num_symbols\": " << b.numSymbols
     << ",\n    \"exec_tier\": \"" << json::escape(b.execTier)
     << "\",\n    \"shadow_tier\": \"" << json::escape(b.shadowTier)
     << "\",\n    \"max_cycles\": " << b.maxCycles
     << ",\n    \"fault_inject_seed\": \"" << trace::traceIdHex(b.faultInjectSeed)
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
  os << ",\n  \"spans\": [";
  trace::writeSpanJsonEntries(b.spans.spans, os, 4);
  os << "\n  ],\n  \"ring\": {\n    \"capacity\": " << b.ringCapacity
     << ",\n    \"accepted\": " << b.ringAccepted
     << ",\n    \"dropped\": " << b.ringDropped << ",\n    \"events\": [";
  trace::writeTraceEventJsonEntries(b.ring, os, 6);
  os << "\n    ]\n  },\n  \"buildinfo\": ";
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
  b.trigger = root.at("trigger").str;
  b.reason = root.at("reason").str;
  b.jobId = static_cast<u64>(root.at("job_id").number);
  b.tag = static_cast<u32>(root.at("tag").number);
  b.worker = static_cast<int>(root.at("worker").number);
  b.traceId = hexToU64(root.at("trace_id").str);

  const json::JsonValue& cfg = root.at("config");
  b.modulation = static_cast<int>(cfg.at("modulation").number);
  b.numSymbols = static_cast<int>(cfg.at("num_symbols").number);
  b.execTier = cfg.at("exec_tier").str;
  b.shadowTier = cfg.at("shadow_tier").str;
  b.maxCycles = static_cast<u64>(cfg.at("max_cycles").number);
  b.faultInjectSeed = hexToU64(cfg.at("fault_inject_seed").str);

  const json::JsonValue& rx = root.at("rx");
  ADRES_CHECK(rx.array.size() == 2, "bundle rx must hold two antenna streams");
  b.rx[0] = parseRx(rx.array[0]);
  b.rx[1] = parseRx(rx.array[1]);

  b.primary = parseDecodeSummary(root.at("primary"));
  const json::JsonValue& shadow = root.at("shadow");
  if (shadow.type == json::JsonValue::kObject)
    b.shadow = parseDecodeSummary(shadow);

  b.spans.traceId = b.traceId;
  b.spans.jobId = b.jobId;
  b.spans.worker = b.worker;
  b.spans.tag = b.tag;
  for (const json::JsonValue& sv : root.at("spans").array) {
    trace::Span s;
    s.kind = trace::spanKindFromName(sv.at("kind").str);
    s.name = sv.at("name").str;
    s.startUs = sv.at("start_us").number;
    s.durUs = sv.at("dur_us").number;
    s.startCycle = static_cast<u64>(sv.at("start_cycle").number);
    s.cycles = static_cast<u64>(sv.at("cycles").number);
    s.ops = static_cast<u64>(sv.at("ops").number);
    b.spans.spans.push_back(std::move(s));
  }

  const json::JsonValue& ring = root.at("ring");
  b.ringCapacity = static_cast<std::size_t>(ring.at("capacity").number);
  b.ringAccepted = static_cast<u64>(ring.at("accepted").number);
  b.ringDropped = static_cast<u64>(ring.at("dropped").number);
  for (const json::JsonValue& ev : ring.at("events").array) {
    TraceEvent e;
    e.cycle = static_cast<u64>(ev.at("cycle").number);
    e.dur = static_cast<u64>(ev.at("dur").number);
    e.kind = trace::traceEventKindFromName(ev.at("kind").str);
    e.track = static_cast<u8>(ev.at("track").number);
    e.a = static_cast<u32>(ev.at("a").number);
    e.b = static_cast<u32>(ev.at("b").number);
    b.ring.push_back(e);
  }
  return b;
}

PostmortemWriter::PostmortemWriter(PostmortemConfig cfg) : cfg_(std::move(cfg)) {
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
}

std::string PostmortemWriter::write(const PostmortemBundle& b) {
  std::string path;
  {
    std::lock_guard<std::mutex> lk(mu_);
    path = cfg_.dir + "/postmortem_" + trace::traceIdHex(b.traceId) + "_" +
           std::to_string(fileSeq_++) + ".json";
  }
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
