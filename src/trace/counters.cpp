#include "trace/counters.hpp"

#include "core/processor.hpp"

namespace adres::trace {

CounterBlock readCounters(const Processor& p) {
  return CounterBlock{{
#define ADRES_COUNTER_READ(id, key, read) read,
      ADRES_COUNTERS(ADRES_COUNTER_READ)
#undef ADRES_COUNTER_READ
  }};
}

void writeCountersJson(std::ostream& os, const CounterBlock& counters,
                       const std::map<int, RegionProfile>& regions,
                       const std::vector<std::string>& regionNames,
                       int workers) {
  os << "{\n  \"schema\": \"adres.counters.v1\",";
  if (workers > 0) os << "\n  \"workers\": " << workers << ',';
  os << "\n  \"counters\": {";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << kCounterNames[i]
       << "\": " << counters.values[i];
  }

  // Keys sort as whole strings, not by region then metric (' ' and '-' sort
  // before '.': "a b.ops" precedes "a.cycles"), hence the sorted map.
  std::map<std::string, u64> group;
  for (const auto& [id, rp] : regions) {
    const std::string base = regionName(regionNames, id);
    group[base + ".cycles"] += rp.cycles;
    group[base + ".ops"] += rp.ops;
    group[base + ".vliw_cycles"] += rp.vliwCycles;
    group[base + ".cga_cycles"] += rp.cgaCycles;
    group[base + ".entries"] += rp.entries;
  }
  os << "\n  },\n  \"groups\": {\n    \"region\": {";
  bool first = true;
  for (const auto& [key, value] : group) {
    os << (first ? "\n" : ",\n") << "      \"" << key << "\": " << value;
    first = false;
  }
  os << "\n    }\n  }\n}\n";
}

}  // namespace adres::trace
