#include "trace/profile.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/json_escape.hpp"

namespace adres::trace {
namespace {

/// Folded-stack frames must not contain the separators (';' and ' ').
std::string foldedFrame(const std::string& s) {
  std::string out = s;
  for (char& c : out)
    if (c == ';' || c == ' ') c = '_';
  return out;
}

/// The report view of a summary: its sums keyed by resolved names, ids
/// that share a name folded into one row.
struct NamedRows {
  std::map<std::string, RegionProfile> regions;
  std::map<std::pair<std::string, std::string>, KernelLaunchProfile> kernels;
};

NamedRows named(const ProfileSummary& s) {
  NamedRows rows;
  for (const auto& [id, rp] : s.regions)
    rows.regions[regionName(s.regionNames, id)] += rp;
  for (const auto& [key, kp] : s.kernels) {
    std::string kernel =
        key.second < s.kernelNames.size() ? s.kernelNames[key.second] : "";
    if (kernel.empty()) kernel = "kernel" + std::to_string(key.second);
    rows.kernels[{regionName(s.regionNames, key.first), kernel}] += kp;
  }
  return rows;
}

}  // namespace

std::string planClassName(u8 kind, u8 lat) {
  const char* k = kind == 0 ? "compute" : kind == 1 ? "load" : "store";
  return std::string(k) + ".lat" + std::to_string(static_cast<int>(lat));
}

void ProfileSummary::addProcessor(const Processor& proc) {
  const std::vector<std::string>& names = proc.program().regionNames;
  if (runs == 0) {
    regionNames = names;
    if (const auto& plans = proc.kernelPlans())
      for (const KernelPlan& k : plans->kernels)
        kernelNames.push_back(k.source.name);
  }
  ADRES_CHECK(names == regionNames,
              "a profile summary adds processors of one program only");
  ++runs;
  totalCycles += proc.activity().totalCycles();
  for (const auto& [id, rp] : proc.profiles()) regions[id] += rp;
  for (const auto& [key, kp] : proc.kernelProfiles()) kernels[key] += kp;
}

std::vector<CycleSink> ProfileSummary::topSinks(std::size_t n) const {
  const NamedRows rows = named(*this);
  std::vector<CycleSink> sinks;
  for (const auto& [key, kr] : rows.kernels)
    sinks.push_back({key.first + "/" + key.second, kr.cycles, 0.0});
  for (const auto& [name, rr] : rows.regions) {
    if (rr.vliwCycles > 0)
      sinks.push_back({name + " [vliw]", rr.vliwCycles, 0.0});
  }
  std::stable_sort(sinks.begin(), sinks.end(),
                   [](const CycleSink& a, const CycleSink& b) {
                     return a.cycles > b.cycles;
                   });
  if (sinks.size() > n) sinks.resize(n);
  for (CycleSink& s : sinks)
    s.share = totalCycles
                  ? static_cast<double>(s.cycles) /
                        static_cast<double>(totalCycles)
                  : 0.0;
  return sinks;
}

void ProfileSummary::writeJson(std::ostream& os) const {
  const NamedRows rows = named(*this);
  os << "{\n  \"schema\": \"adres.profile.v1\",\n"
     << "  \"runs\": " << runs << ",\n"
     << "  \"total_cycles\": " << totalCycles << ",\n  \"regions\": [";
  bool first = true;
  for (const auto& [name, rr] : rows.regions) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << json::escape(name)
       << "\", \"cycles\": " << rr.cycles
       << ", \"vliw_cycles\": " << rr.vliwCycles
       << ", \"cga_cycles\": " << rr.cgaCycles
       << ", \"vliw_ops\": " << rr.vliwOps << ", \"cga_ops\": " << rr.cgaOps
       << ", \"entries\": " << rr.entries << '}';
    first = false;
  }
  os << "\n  ],\n  \"kernels\": [";
  first = true;
  for (const auto& [key, kr] : rows.kernels) {
    os << (first ? "\n" : ",\n") << "    {\"region\": \""
       << json::escape(key.first) << "\", \"kernel\": \""
       << json::escape(key.second) << "\", \"launches\": " << kr.launches
       << ", \"trips\": " << kr.trips << ", \"cycles\": " << kr.cycles
       << ", \"issue_cycles\": " << kr.issueCycles
       << ", \"idle_cycles\": " << kr.idleCycles
       << ", \"stall_cycles\": " << kr.stallCycles
       << ", \"overhead_cycles\": " << kr.overheadCycles
       << ", \"ops\": " << kr.ops << ", \"route_moves\": " << kr.routeMoves
       << ", \"ops_by_class\": {";
    // (kind, latency) order is the class names' string order: every
    // latency is a single digit.
    bool firstCls = true;
    for (const auto& [cls, ops] : kr.opsByClass) {
      os << (firstCls ? "" : ", ") << '"'
         << planClassName(cls.first, cls.second) << "\": " << ops;
      firstCls = false;
    }
    os << "}}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

void ProfileSummary::writeFolded(std::ostream& os) const {
  const NamedRows rows = named(*this);
  for (const auto& [key, kr] : rows.kernels) {
    const std::string base =
        "modem;" + foldedFrame(key.first) + ";" + foldedFrame(key.second);
    if (kr.issueCycles) os << base << ";issue " << kr.issueCycles << '\n';
    if (kr.idleCycles) os << base << ";idle " << kr.idleCycles << '\n';
    if (kr.stallCycles) os << base << ";stall " << kr.stallCycles << '\n';
    if (kr.overheadCycles)
      os << base << ";overhead " << kr.overheadCycles << '\n';
  }
  for (const auto& [name, rr] : rows.regions) {
    if (rr.vliwCycles)
      os << "modem;" << foldedFrame(name) << ";vliw " << rr.vliwCycles << '\n';
  }
}

}  // namespace adres::trace
