// Per-packet spans and the cycle-attribution profiler: trace-id hashing,
// span-tree construction and clamping, and — on a real modem decode — the
// KernelLaunchProfile partition invariant (cycles == issue + idle + stall +
// overhead), the adres.profile.v1 JSON schema and the flamegraph
// folded-stacks output.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/json_min.hpp"
#include "core/processor.hpp"
#include "dsp/channel.hpp"
#include "sdr/modem_program.hpp"
#include "trace/profile.hpp"
#include "trace/span.hpp"

namespace adres::trace {
namespace {

using json::JsonParser;
using json::JsonValue;

TEST(PlanClass, NamesAreStableKindDotLatency) {
  EXPECT_EQ(planClassName(0, 1), "compute.lat1");
  EXPECT_EQ(planClassName(0, 3), "compute.lat3");
  EXPECT_EQ(planClassName(1, 3), "load.lat3");
  EXPECT_EQ(planClassName(2, 1), "store.lat1");
}

TEST(TraceId, DeterministicNonZeroAndInputSensitive) {
  EXPECT_EQ(packetTraceId(7, 3), packetTraceId(7, 3));
  EXPECT_NE(packetTraceId(7, 3), packetTraceId(8, 3)) << "job id mixed in";
  EXPECT_NE(packetTraceId(7, 3), packetTraceId(7, 4)) << "tag mixed in";
  // Never 0, even for the all-zero input (0 is "no trace id").
  EXPECT_NE(packetTraceId(0, 0), 0u);
  for (u64 j = 0; j < 64; ++j) EXPECT_NE(packetTraceId(j, 0), 0u) << j;
}

TEST(TraceId, HexIs16LowercaseDigits) {
  EXPECT_EQ(traceIdHex(0), "0000000000000000");
  EXPECT_EQ(traceIdHex(0xabc), "0000000000000abc");
  EXPECT_EQ(traceIdHex(~0ull), "ffffffffffffffff");
  EXPECT_EQ(traceIdHex(0x0123456789abcdefull), "0123456789abcdef");
  const std::string h = traceIdHex(packetTraceId(42, 1));
  ASSERT_EQ(h.size(), 16u);
  for (const char c : h)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
}

TEST(PacketSpans, TreeHasPhasesAndRegionChildrenMappedLinearly) {
  // Two-region decode: 100 sim cycles over a 100 µs decode window, so one
  // cycle maps to exactly one host µs.
  std::vector<RegionSpan> log;
  log.push_back({0, 0, 40, 80});
  log.push_back({1, 40, 100, 120});
  const std::vector<std::string> names = {"sync", "payload"};
  const PacketSpans ps =
      buildPacketSpans(/*jobId=*/5, /*tag=*/2, /*worker=*/1, /*enqueueUs=*/0,
                       /*dispatchUs=*/10, /*decodeStartUs=*/12,
                       /*decodeEndUs=*/112, /*decodeCycles=*/100, log, names);

  EXPECT_EQ(ps.traceId, packetTraceId(5, 2));
  EXPECT_EQ(ps.jobId, 5u);
  EXPECT_EQ(ps.worker, 1);
  EXPECT_EQ(ps.tag, 2u);
  ASSERT_EQ(ps.spans.size(), 6u) << "4 phases + 2 region children";
  EXPECT_FALSE(ps.empty());

  const Span* packet = ps.find(SpanKind::kPacket);
  ASSERT_NE(packet, nullptr);
  EXPECT_DOUBLE_EQ(packet->startUs, 0.0);
  EXPECT_DOUBLE_EQ(packet->durUs, 112.0);
  EXPECT_EQ(packet->cycles, 100u);

  EXPECT_DOUBLE_EQ(ps.queueWaitUs(), 10.0);
  const Span* dispatch = ps.find(SpanKind::kDispatch);
  ASSERT_NE(dispatch, nullptr);
  EXPECT_DOUBLE_EQ(dispatch->startUs, 10.0);
  EXPECT_DOUBLE_EQ(dispatch->durUs, 2.0);
  EXPECT_DOUBLE_EQ(ps.decodeUs(), 100.0);

  // Region children: named from regionNames, cycle-exact, 1 µs per cycle.
  const Span& sync = ps.spans[4];
  EXPECT_EQ(sync.kind, SpanKind::kRegion);
  EXPECT_EQ(sync.name, "sync");
  EXPECT_EQ(sync.startCycle, 0u);
  EXPECT_EQ(sync.cycles, 40u);
  EXPECT_EQ(sync.ops, 80u);
  EXPECT_DOUBLE_EQ(sync.startUs, 12.0);
  EXPECT_DOUBLE_EQ(sync.durUs, 40.0);
  const Span& payload = ps.spans[5];
  EXPECT_EQ(payload.name, "payload");
  EXPECT_DOUBLE_EQ(payload.startUs, 52.0);
  EXPECT_DOUBLE_EQ(payload.durUs, 60.0);
  // An out-of-range region id falls back to a synthetic name.
  const PacketSpans fallback = buildPacketSpans(
      5, 2, 1, 0, 10, 12, 112, 100, {{9, 0, 10, 1}}, names);
  EXPECT_EQ(fallback.spans.back().name, "region9");
}

TEST(PacketSpans, TimestampsClampMonotone) {
  // A dispatch stamp earlier than the enqueue stamp (clock skew between the
  // submitter and the worker) must not yield negative durations.
  const PacketSpans ps = buildPacketSpans(1, 0, 0, /*enqueueUs=*/50,
                                          /*dispatchUs=*/40, /*decodeStart=*/30,
                                          /*decodeEnd=*/20, 0, {}, {});
  ASSERT_EQ(ps.spans.size(), 4u);
  for (const Span& s : ps.spans) {
    EXPECT_GE(s.startUs, 50.0) << s.name;
    EXPECT_GE(s.durUs, 0.0) << s.name;
  }
  EXPECT_DOUBLE_EQ(ps.queueWaitUs(), 0.0);
  EXPECT_DOUBLE_EQ(ps.decodeUs(), 0.0);
}

/// One clean QAM-64 decode with profiling + region logging enabled; shared
/// by the profiler-invariant tests below.
struct ProfiledDecode {
  Processor proc;
  std::vector<RegionSpan> regionLog;
  sdr::ProcessorRxResult res;
  sdr::ModemOnProcessor modem;

  ProfiledDecode() {
    dsp::ModemConfig cfg;
    cfg.mod = dsp::Modulation::kQam64;
    cfg.numSymbols = 4;
    Rng rng(5);
    const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
    dsp::ChannelConfig cc;
    cc.flat = true;
    cc.snrDb = 40;
    cc.cfoPpm = 6;
    dsp::MimoChannel ch(cc);
    modem = sdr::buildModemProgram(cfg);
    sdr::RxRunOptions opts;
    opts.profile = true;
    opts.regionLog = &regionLog;
    res = sdr::runModemOnProcessor(proc, modem, ch.run(pkt.waveform), opts);
  }
};

TEST(Profiler, KernelLaunchCyclesPartitionExactly) {
  ProfiledDecode d;
  ASSERT_TRUE(d.res.detected);
  const auto& profs = d.proc.kernelProfiles();
  ASSERT_FALSE(profs.empty()) << "profiling was enabled";
  for (const auto& [key, kp] : profs) {
    SCOPED_TRACE("region " + std::to_string(key.first) + " kernel " +
                 std::to_string(key.second));
    EXPECT_GT(kp.launches, 0u);
    EXPECT_GT(kp.cycles, 0u);
    // The partition invariant: every booked cycle is attributed exactly once.
    EXPECT_EQ(kp.cycles,
              kp.issueCycles + kp.idleCycles + kp.stallCycles +
                  kp.overheadCycles);
    EXPECT_GT(kp.issueCycles, 0u) << "a launch that issued nothing";
    // Scheduled dispatch slots (plan classes x trips) bound retired ops.
    u64 scheduled = 0;
    for (const auto& [cls, ops] : kp.opsByClass) scheduled += ops;
    EXPECT_GT(scheduled, 0u);
    EXPECT_GE(scheduled, kp.ops);
  }
  // The region log covers the decode with monotone, named spans.
  ASSERT_FALSE(d.regionLog.empty());
  u64 prevEnd = 0;
  for (const RegionSpan& r : d.regionLog) {
    EXPECT_LE(r.startCycle, r.endCycle);
    EXPECT_GE(r.startCycle, prevEnd) << "spans are ordered";
    prevEnd = r.endCycle;
    ASSERT_GE(r.region, 0);
    EXPECT_LT(static_cast<std::size_t>(r.region),
              d.modem.program.regionNames.size());
  }
}

TEST(Profiler, SummaryFoldsMergesRanksAndExports) {
  ProfiledDecode d;
  ProfileSummary sum;
  EXPECT_TRUE(sum.empty());
  sum.addProcessor(d.proc);
  EXPECT_FALSE(sum.empty());
  EXPECT_EQ(sum.runs, 1u);
  EXPECT_EQ(sum.totalCycles, d.proc.activity().totalCycles());
  // Kernel rows carry human names resolved from the program.
  ASSERT_FALSE(sum.kernels.empty());
  EXPECT_TRUE(sum.kernels.count({"SDM processing", "sdm_processing"}))
      << "Table 2 kernel present under its region/kernel names";
  ASSERT_FALSE(sum.regions.empty());
  EXPECT_GT(sum.regions.at("non-kernel code").vliwCycles, 0u);

  // merge() doubles every count.
  ProfileSummary twice = sum;
  twice.merge(sum);
  EXPECT_EQ(twice.runs, 2u);
  EXPECT_EQ(twice.totalCycles, 2 * sum.totalCycles);
  for (const auto& [key, kr] : sum.kernels) {
    EXPECT_EQ(twice.kernels.at(key).cycles, 2 * kr.cycles);
    EXPECT_EQ(twice.kernels.at(key).ops, 2 * kr.ops);
  }

  // topSinks: descending, share against totalCycles, includes VLIW residues.
  const std::vector<CycleSink> sinks = sum.topSinks(5);
  ASSERT_GE(sinks.size(), 3u);
  for (std::size_t i = 1; i < sinks.size(); ++i)
    EXPECT_GE(sinks[i - 1].cycles, sinks[i].cycles);
  for (const CycleSink& s : sinks) {
    EXPECT_GT(s.share, 0.0);
    EXPECT_NEAR(s.share,
                static_cast<double>(s.cycles) /
                    static_cast<double>(sum.totalCycles),
                1e-12);
  }

  // adres.profile.v1 JSON: parses, and the per-kernel partition survives.
  std::ostringstream js;
  sum.writeJson(js);
  const JsonValue root = JsonParser(js.str()).parse();
  EXPECT_EQ(root.at("schema").str, "adres.profile.v1");
  EXPECT_EQ(root.at("runs").number, 1.0);
  EXPECT_EQ(root.at("total_cycles").number,
            static_cast<double>(sum.totalCycles));
  ASSERT_FALSE(root.at("kernels").array.empty());
  for (const JsonValue& k : root.at("kernels").array) {
    EXPECT_EQ(k.at("cycles").number,
              k.at("issue_cycles").number + k.at("idle_cycles").number +
                  k.at("stall_cycles").number + k.at("overhead_cycles").number);
    EXPECT_FALSE(k.at("region").str.empty());
    EXPECT_FALSE(k.at("kernel").str.empty());
  }
  ASSERT_FALSE(root.at("regions").array.empty());

  // Folded stacks: `modem;region;kernel;component N`, frames free of the
  // separator characters, totals matching the summary's issue cycles.
  std::ostringstream folded;
  sum.writeFolded(folded);
  std::istringstream lines(folded.str());
  std::string line;
  u64 issueTotal = 0, lineCount = 0;
  while (std::getline(lines, line)) {
    ++lineCount;
    ASSERT_EQ(line.rfind("modem;", 0), 0u) << line;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find(' '), space) << "single separator space: " << line;
    if (line.find(";issue ") != std::string::npos)
      issueTotal += std::stoull(line.substr(space + 1));
  }
  EXPECT_GT(lineCount, 0u);
  u64 expectIssue = 0;
  for (const auto& [key, kr] : sum.kernels) expectIssue += kr.issueCycles;
  EXPECT_EQ(issueTotal, expectIssue);
}

TEST(Profiler, DisabledRunBooksIdenticalCyclesAndNoProfiles) {
  // The profiler is observability, not simulation: a profiled decode and a
  // plain decode must be bit- and cycle-exact, and the plain one must leave
  // no kernel profiles behind.
  ProfiledDecode on;
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 4;
  Rng rng(5);
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.cfoPpm = 6;
  dsp::MimoChannel ch(cc);
  const sdr::ModemOnProcessor m = sdr::buildModemProgram(cfg);
  Processor proc;
  const sdr::ProcessorRxResult off =
      sdr::runModemOnProcessor(proc, m, ch.run(pkt.waveform));

  EXPECT_EQ(off.cycles, on.res.cycles);
  EXPECT_EQ(off.bits, on.res.bits);
  EXPECT_TRUE(proc.kernelProfiles().empty());
}

}  // namespace
}  // namespace adres::trace
