// Regenerates the locked byte-identity fixtures.  Run it only when an
// intentional timing-model or mapping change is being made, and review the
// resulting diff:
//
//   $ ./timing_golden_dump > ../tests/core/timing_golden.inc   (from build/)
//   $ ./timing_golden_dump --schedule > ../tests/sched/schedule_golden.inc
//   $ ./timing_golden_dump --trace > ../tests/core/trace_golden.inc
//   $ ./timing_golden_dump --counters > ../tests/trace/counters_golden.inc
//
// The default output is the timing fixture timing_golden_test compares
// against; --schedule emits the mapper fixture of schedule_golden_test,
// --trace the traced-decode event-stream fixture of timing_golden_test and
// --counters the adres.counters.v1 byte fixture of counters_golden_test.
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "support/counters_golden_common.hpp"
#include "support/schedule_golden_common.hpp"
#include "support/timing_golden_common.hpp"

using namespace adres;
using namespace adres::testsupport;

namespace {

void printScheduleRows(const char* array,
                       const std::vector<ScheduleGoldenRow>& rows) {
  printf("inline const ScheduleGoldenRow %s[] = {\n", array);
  for (const ScheduleGoldenRow& r : rows) {
    printf("    {\"%s\", %d, %d, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull},\n",
           r.name.c_str(), r.ii, r.attempts, r.configHash, r.diagnosticsHash);
  }
  printf("};\n");
}

int dumpSchedule() {
  printf("// Locked mapper fixture: per-DFG hashes of encodeKernel(config) and\n");
  printf("// of every ScheduleDiagnostics/ScheduleAttempt field, for the 18\n");
  printf("// modem kernel DFGs and the seeded random DFGs (default and starved\n");
  printf("// options).  Generated by tests/core/timing_golden_dump.cpp\n");
  printf("// --schedule — do not edit by hand; regenerate only for intentional\n");
  printf("// mapping changes.\n");
  printf("// clang-format off\n");
  printScheduleRows("kModemScheduleGolden", collectModemScheduleGolden());
  printScheduleRows("kRandomScheduleGolden", collectRandomScheduleGolden());
  printf("// clang-format on\n");
  return 0;
}

int dumpTiming() {
  printf("// Locked timing fixture: per-kernel CgaRunResult rows and the\n");
  printf("// Table 2 modem run (16 symbols, QAM-64, flat 40 dB, 6 ppm CFO).\n");
  printf("// Generated by tests/core/timing_golden_dump.cpp — do not edit\n");
  printf("// by hand; regenerate only for intentional timing-model changes.\n");
  printf("// clang-format off\n");

  printf("inline const KernelGoldenRow kKernelGolden[] = {\n");
  for (const KernelGoldenRow& r : collectKernelGolden()) {
    printf("    {\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
           ", %" PRIu64 ", 0x%016" PRIx64 "ull},\n",
           r.name.c_str(), r.cycles, r.arrayCycles, r.stallCycles, r.ops,
           r.routeMoves, r.checksum);
  }
  printf("};\n");

  const ModemGolden m = collectModemGolden();
  printf("inline const RegionGoldenRow kRegionGolden[] = {\n");
  for (const RegionGoldenRow& r : m.regions) {
    printf("    {\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
           ", %" PRIu64 "},\n",
           r.name.c_str(), r.cycles, r.vliwCycles, r.cgaCycles, r.ops,
           r.entries);
  }
  printf("};\n");
  printf("inline constexpr bool kModemDetected = %s;\n",
         m.detected ? "true" : "false");
  printf("inline constexpr u32 kModemLtfStart = %u;\n", m.ltfStart);
  printf("inline constexpr u64 kModemCycles = %" PRIu64 "ull;\n", m.cycles);
  printf("inline constexpr u64 kModemBitsHash = 0x%016" PRIx64 "ull;\n",
         m.bitsHash);
  printf("inline constexpr u64 kModemCountersHash = 0x%016" PRIx64 "ull;\n",
         m.countersHash);
  printf("// clang-format on\n");
  return 0;
}

int dumpTrace() {
  const TraceGolden t = collectTraceGolden();
  printf("// Locked trace-stream fixture: event count and FNV-1a hash over\n");
  printf("// every TraceEvent field (cycle, dur, kind, track, a, b) of the\n");
  printf("// traced Table 2 modem run (16 symbols, QAM-64, flat 40 dB,\n");
  printf("// 6 ppm CFO).  Generated by tests/core/timing_golden_dump.cpp\n");
  printf("// --trace — do not edit by hand; regenerate only for intentional\n");
  printf("// changes to the traced event stream.\n");
  printf("// clang-format off\n");
  printf("inline constexpr u64 kTraceEvents = %" PRIu64 "ull;\n", t.events);
  printf("inline constexpr u64 kTraceHash = 0x%016" PRIx64 "ull;\n", t.hash);
  printf("// clang-format on\n");
  return 0;
}

void printDigest(const DumpDigest& d) {
  printf("{0x%016" PRIx64 "ull, %" PRIu64 "}", d.hash, d.bytes);
}

int dumpCounters() {
  printf("// Locked adres.counters.v1 fixture: FNV-1a hash and byte length of\n");
  printf("// the processor dump after the Table 2 modem decode and the\n");
  printf("// adres_sim_counter exposition lines of an ordered 3-worker farm\n");
  printf("// over a fixed packet set after finish().  Generated by\n");
  printf("// tests/core/timing_golden_dump.cpp --counters — do not edit by\n");
  printf("// hand; regenerate only for intentional changes to the counter\n");
  printf("// schema.\n");
  printf("// clang-format off\n");
  printf("inline const CountersGoldenRow kCountersGolden[] = {\n");
  for (dsp::Modulation mod :
       {dsp::Modulation::kQam64, dsp::Modulation::kQam16}) {
    const CountersGolden g = collectCountersGolden(mod);
    printf("    {\"%s\", ", modulationLabel(mod));
    printDigest(g.processor);
    printf(", ");
    printDigest(g.simCounterLines);
    printf("},\n");
  }
  printf("};\n");
  printf("// clang-format on\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--schedule") == 0)
    return dumpSchedule();
  if (argc == 2 && std::strcmp(argv[1], "--trace") == 0) return dumpTrace();
  if (argc == 2 && std::strcmp(argv[1], "--counters") == 0)
    return dumpCounters();
  if (argc != 1) {
    fprintf(stderr,
            "usage: timing_golden_dump [--schedule | --trace | --counters]\n");
    return 2;
  }
  return dumpTiming();
}
