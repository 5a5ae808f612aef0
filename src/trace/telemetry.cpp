#include "trace/telemetry.hpp"

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "core/processor.hpp"

namespace adres::trace {

void writeCountersJson(const Processor& proc, std::ostream& os) {
  writeCountersJson(os, readCounters(proc), proc.profiles(),
                    proc.program().regionNames);
}

void writeCountersFile(const Processor& proc, const std::string& path) {
  ADRES_CHECK(writeFileAtomic(path,
                              [&](std::ostream& os) {
                                writeCountersJson(proc, os);
                              }),
              "cannot write counters JSON '" << path << '\'');
}

void printRegionTable(const Processor& proc, std::FILE* out) {
  std::fprintf(out, "%-26s %8s %10s %7s %6s  %s\n", "region", "entries",
               "cycles", "ops/e", "IPC", "mode");
  std::fprintf(out,
               "----------------------------------------------------------"
               "--------\n");
  u64 total = 0;
  for (const auto& [id, prof] : proc.profiles()) {
    total += prof.cycles;
    std::fprintf(out, "%-26s %8llu %10llu %7llu %6.2f  %s\n",
                 regionName(proc.program().regionNames, id).c_str(),
                 static_cast<unsigned long long>(prof.entries),
                 static_cast<unsigned long long>(prof.cycles),
                 static_cast<unsigned long long>(
                     prof.entries ? prof.ops / prof.entries : 0),
                 prof.ipc(), prof.mode().c_str());
  }
  std::fprintf(out,
               "----------------------------------------------------------"
               "--------\n");
  std::fprintf(out, "%-26s %8s %10llu\n", "total profiled", "",
               static_cast<unsigned long long>(total));
}

}  // namespace adres::trace
