#include "trace/profile.hpp"

#include <algorithm>

#include "common/json_escape.hpp"
#include "core/processor.hpp"

namespace adres::trace {
namespace {

std::string kernelName(const Processor& proc, u32 id) {
  const auto& plans = proc.kernelPlans();
  if (plans && id < plans->kernels.size() &&
      !plans->kernels[id].source.name.empty())
    return plans->kernels[id].source.name;
  return "kernel" + std::to_string(id);
}

/// Folded-stack frames must not contain the separators (';' and ' ').
std::string foldedFrame(const std::string& s) {
  std::string out = s;
  for (char& c : out)
    if (c == ';' || c == ' ') c = '_';
  return out;
}

}  // namespace

std::string planClassName(u8 kind, u8 lat) {
  const char* k = kind == 0 ? "compute" : kind == 1 ? "load" : "store";
  return std::string(k) + ".lat" + std::to_string(static_cast<int>(lat));
}

void ProfileSummary::addProcessor(const Processor& proc) {
  const std::vector<std::string>& names = proc.program().regionNames;
  ++runs;
  totalCycles += proc.activity().totalCycles();
  for (const auto& [id, rp] : proc.profiles()) {
    ProfileRegionRow& row = regions[regionName(names, id)];
    row.cycles += rp.cycles;
    row.vliwCycles += rp.vliwCycles;
    row.cgaCycles += rp.cgaCycles;
    row.vliwOps += rp.vliwOps;
    row.cgaOps += rp.cgaOps;
    row.entries += rp.entries;
  }
  for (const auto& [key, kp] : proc.kernelProfiles()) {
    ProfileKernelRow& row =
        kernels[{regionName(names, key.first), kernelName(proc, key.second)}];
    row.launches += kp.launches;
    row.trips += kp.trips;
    row.cycles += kp.cycles;
    row.issueCycles += kp.issueCycles;
    row.idleCycles += kp.idleCycles;
    row.stallCycles += kp.stallCycles;
    row.overheadCycles += kp.overheadCycles;
    row.ops += kp.ops;
    row.routeMoves += kp.routeMoves;
    for (const auto& [cls, ops] : kp.opsByClass)
      row.opsByClass[planClassName(cls.first, cls.second)] += ops;
  }
}

void ProfileSummary::merge(const ProfileSummary& other) {
  runs += other.runs;
  totalCycles += other.totalCycles;
  for (const auto& [name, rr] : other.regions) {
    ProfileRegionRow& row = regions[name];
    row.cycles += rr.cycles;
    row.vliwCycles += rr.vliwCycles;
    row.cgaCycles += rr.cgaCycles;
    row.vliwOps += rr.vliwOps;
    row.cgaOps += rr.cgaOps;
    row.entries += rr.entries;
  }
  for (const auto& [key, kr] : other.kernels) {
    ProfileKernelRow& row = kernels[key];
    row.launches += kr.launches;
    row.trips += kr.trips;
    row.cycles += kr.cycles;
    row.issueCycles += kr.issueCycles;
    row.idleCycles += kr.idleCycles;
    row.stallCycles += kr.stallCycles;
    row.overheadCycles += kr.overheadCycles;
    row.ops += kr.ops;
    row.routeMoves += kr.routeMoves;
    for (const auto& [cls, ops] : kr.opsByClass) row.opsByClass[cls] += ops;
  }
}

std::vector<CycleSink> ProfileSummary::topSinks(std::size_t n) const {
  std::vector<CycleSink> sinks;
  for (const auto& [key, kr] : kernels)
    sinks.push_back({key.first + "/" + key.second, kr.cycles, 0.0});
  for (const auto& [name, rr] : regions) {
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
  os << "{\n  \"schema\": \"adres.profile.v1\",\n"
     << "  \"runs\": " << runs << ",\n"
     << "  \"total_cycles\": " << totalCycles << ",\n  \"regions\": [";
  bool first = true;
  for (const auto& [name, rr] : regions) {
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
  for (const auto& [key, kr] : kernels) {
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
    bool firstCls = true;
    for (const auto& [cls, ops] : kr.opsByClass) {
      os << (firstCls ? "" : ", ") << '"' << json::escape(cls) << "\": " << ops;
      firstCls = false;
    }
    os << "}}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

void ProfileSummary::writeFolded(std::ostream& os) const {
  for (const auto& [key, kr] : kernels) {
    const std::string base =
        "modem;" + foldedFrame(key.first) + ";" + foldedFrame(key.second);
    if (kr.issueCycles) os << base << ";issue " << kr.issueCycles << '\n';
    if (kr.idleCycles) os << base << ";idle " << kr.idleCycles << '\n';
    if (kr.stallCycles) os << base << ";stall " << kr.stallCycles << '\n';
    if (kr.overheadCycles)
      os << base << ";overhead " << kr.overheadCycles << '\n';
  }
  for (const auto& [name, rr] : regions) {
    if (rr.vliwCycles)
      os << "modem;" << foldedFrame(name) << ";vliw " << rr.vliwCycles << '\n';
  }
}

}  // namespace adres::trace
