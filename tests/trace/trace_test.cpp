// Trace & telemetry layer: ring-buffer flight recorder, Chrome / JSONL
// exporters (validated with the shared tests/support/json_min.hpp parser),
// the fixed counter schema, and the processor integration (events emitted
// during a real program run, zero perturbation when the sink is detached).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/processor.hpp"
#include "sched/progbuilder.hpp"
#include "common/json_min.hpp"
#include "trace/counters.hpp"
#include "trace/export.hpp"
#include "trace/telemetry.hpp"

namespace adres {
namespace {

using json::JsonParser;
using json::JsonValue;

TraceEvent ev(u64 cycle, TraceEventKind kind, u8 track = 0, u32 a = 0,
              u32 b = 0, u64 dur = 0) {
  return {cycle, dur, kind, track, a, b};
}

// ---------------------------------------------------------------------------
// RingBufferSink

TEST(RingBufferSink, RetainsEverythingBelowCapacity) {
  RingBufferSink ring(8);
  for (u64 i = 0; i < 5; ++i)
    ring.event(ev(i, TraceEventKind::kVliwOp, static_cast<u8>(i)));
  EXPECT_EQ(ring.accepted(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto evs = ring.events();
  ASSERT_EQ(evs.size(), 5u);
  for (u64 i = 0; i < 5; ++i) EXPECT_EQ(evs[i].cycle, i);
}

TEST(RingBufferSink, OverwritesOldestAndCountsDrops) {
  RingBufferSink ring(4);
  for (u64 i = 0; i < 10; ++i) ring.event(ev(i, TraceEventKind::kVliwOp));
  EXPECT_EQ(ring.accepted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u) << "capacity 4, 10 emitted";
  EXPECT_EQ(ring.size(), 4u);
  const auto evs = ring.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first: the survivors are the last four events, in order.
  for (u64 i = 0; i < 4; ++i) EXPECT_EQ(evs[i].cycle, 6 + i);
}

TEST(RingBufferSink, ClearResetsEverything) {
  RingBufferSink ring(2);
  for (u64 i = 0; i < 5; ++i) ring.event(ev(i, TraceEventKind::kHalt));
  ring.clear();
  EXPECT_EQ(ring.accepted(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.events().empty());
  ring.event(ev(42, TraceEventKind::kHalt));
  ASSERT_EQ(ring.events().size(), 1u);
  EXPECT_EQ(ring.events()[0].cycle, 42u);
}

// ---------------------------------------------------------------------------
// Chrome trace exporter

TEST(ChromeExport, EmitsValidJsonWithRequiredFields) {
  std::vector<TraceEvent> events = {
      ev(100, TraceEventKind::kKernel, 0, 0, 123, 40),          // span
      ev(100, TraceEventKind::kModeSwitch, 0, 0),               // instant
      ev(110, TraceEventKind::kVliwOp, 2, 0),                   // slot 2 track
      ev(120, TraceEventKind::kFuActive, 7, 0, 9, 40),          // FU 7 track
  };
  trace::TraceNames names;
  names.kernels.push_back("fft_stage");
  std::ostringstream os;
  trace::writeChromeTrace(events, os, names);

  JsonValue root = JsonParser(os.str()).parse();
  ASSERT_EQ(root.type, JsonValue::kObject);
  ASSERT_TRUE(root.hasKey("traceEvents"));
  const JsonValue& arr = root.at("traceEvents");
  ASSERT_EQ(arr.type, JsonValue::kArray);

  int metadata = 0, spans = 0, instants = 0;
  for (const JsonValue& e : arr.array) {
    ASSERT_EQ(e.type, JsonValue::kObject);
    // Every record carries the Chrome trace-event required fields.
    ASSERT_TRUE(e.hasKey("name"));
    ASSERT_TRUE(e.hasKey("ph"));
    ASSERT_TRUE(e.hasKey("pid"));
    ASSERT_TRUE(e.hasKey("tid"));
    const std::string ph = e.at("ph").str;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_TRUE(e.hasKey("ts"));
    if (ph == "X") {
      ++spans;
      ASSERT_TRUE(e.hasKey("dur"));
      EXPECT_GT(e.at("dur").number, 0.0);
    } else {
      ASSERT_EQ(ph, "i");
      ++instants;
    }
  }
  EXPECT_GE(metadata, 1 + 3 + 16) << "core + VLIW slots + CGA FUs named";
  EXPECT_EQ(spans, 2) << "kernel + FU-activity spans";
  EXPECT_EQ(instants, 2) << "mode switch + VLIW op";
}

TEST(ChromeExport, TimestampsScaleByClockPeriodAndNamesResolve) {
  std::vector<TraceEvent> events = {
      ev(400, TraceEventKind::kKernel, 0, 0, 5, 800),
  };
  trace::TraceNames names;
  names.kernels.push_back("xcorr");
  std::ostringstream os;
  trace::writeChromeTrace(events, os, names);  // default: 400 MHz
  JsonValue root = JsonParser(os.str()).parse();
  const JsonValue* kernel = nullptr;
  for (const JsonValue& e : root.at("traceEvents").array)
    if (e.at("ph").str == "X") kernel = &e;
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->at("name").str, "xcorr");
  EXPECT_DOUBLE_EQ(kernel->at("ts").number, 1.0) << "400 cycles @ 400 MHz = 1 us";
  EXPECT_DOUBLE_EQ(kernel->at("dur").number, 2.0);
  EXPECT_EQ(kernel->at("args").at("cycle").number, 400.0);
}

TEST(ChromeExport, EscapesSpecialCharactersInNames) {
  std::vector<TraceEvent> events = {ev(0, TraceEventKind::kRegionExit, 0, 0, 0, 7)};
  trace::TraceNames names;
  names.regions.push_back("equalize \"coeff\" calc.\n");
  std::ostringstream os;
  trace::writeChromeTrace(events, os, names);
  JsonValue root = JsonParser(os.str()).parse();  // must not throw
  bool found = false;
  for (const JsonValue& e : root.at("traceEvents").array)
    if (e.at("ph").str == "X" &&
        e.at("name").str == "equalize \"coeff\" calc.\n")
      found = true;
  EXPECT_TRUE(found);
}

TEST(JsonlExport, OneValidObjectPerLine) {
  std::vector<TraceEvent> events = {
      ev(10, TraceEventKind::kICacheMiss, 0, 0x40, 0, 20),
      ev(31, TraceEventKind::kL1Conflict, 2, 0x880, 4),
      ev(50, TraceEventKind::kHalt),
  };
  std::ostringstream os;
  trace::writeJsonl(events, os);
  std::istringstream in(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue v = JsonParser(line).parse();
    ASSERT_EQ(v.type, JsonValue::kObject);
    ASSERT_TRUE(v.hasKey("cycle"));
    ASSERT_TRUE(v.hasKey("kind"));
    ASSERT_TRUE(v.hasKey("track"));
    ++lines;
  }
  EXPECT_EQ(lines, 3);
}

// ---------------------------------------------------------------------------
// Counter registry: the ADRES_COUNTERS table of the adres.counters.v1 schema

// The dump order is the X-macro row order (counters.hpp static_asserts it
// too, so a misplaced row already fails the build).
TEST(CounterRegistry, KeysAreSortedAndStable) {
  ASSERT_EQ(trace::kNumCounters, 32u);
  std::set<std::string_view> unique;
  for (std::size_t i = 0; i < trace::kNumCounters; ++i) {
    EXPECT_FALSE(trace::kCounterNames[i].empty()) << i;
    if (i > 0) {
      EXPECT_LT(trace::kCounterNames[i - 1], trace::kCounterNames[i])
          << "row " << i << " breaks the sorted key order";
    }
    unique.insert(trace::kCounterNames[i]);
  }
  EXPECT_EQ(unique.size(), trace::kNumCounters) << "keys are unique";
  EXPECT_EQ(trace::counterName(trace::Counter::kCdrfCgaAccesses),
            "cdrf.cga_accesses");
  EXPECT_EQ(trace::counterName(trace::Counter::kCoreCycles), "core.cycles");
  EXPECT_EQ(trace::counterName(trace::Counter::kVliwStallCycles),
            "vliw.stall_cycles");

  // The dump lists the counters in table order, identically on every call.
  const trace::CounterBlock block;
  std::ostringstream first, second;
  trace::writeCountersJson(first, block, {}, {});
  trace::writeCountersJson(second, block, {}, {});
  EXPECT_EQ(first.str(), second.str()) << "dump is stable across calls";
  std::size_t prev = 0;
  for (std::string_view key : trace::kCounterNames) {
    const std::size_t at = first.str().find("\"" + std::string(key) + "\"");
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_GT(at, prev) << key << " is dumped out of table order";
    prev = at;
  }
}

TEST(CounterRegistry, RejectsDuplicateAndEmptyNames) {
  using Keys = std::vector<std::string_view>;
  EXPECT_TRUE(trace::counterKeysStrictlySorted(trace::kCounterNames));
  EXPECT_TRUE(trace::counterKeysStrictlySorted(Keys{"a.x", "b.y"}));
  EXPECT_FALSE(trace::counterKeysStrictlySorted(Keys{"dup", "dup"}))
      << "duplicate key";
  EXPECT_FALSE(trace::counterKeysStrictlySorted(Keys{"", "a.x"}))
      << "empty key";
  EXPECT_FALSE(trace::counterKeysStrictlySorted(Keys{"a.x", ""}))
      << "empty key after a valid one";
  EXPECT_FALSE(trace::counterKeysStrictlySorted(Keys{"b.y", "a.x"}))
      << "out of order";
}

TEST(CounterBlock, IndexesAddsAndCompares) {
  trace::CounterBlock a;
  a[trace::Counter::kCgaCycles] = 900;
  a[trace::Counter::kL1Reads] = 12;
  trace::CounterBlock b;
  b[trace::Counter::kCgaCycles] = 100;
  EXPECT_NE(a, b);
  a += b;
  EXPECT_EQ(a[trace::Counter::kCgaCycles], 1000u);
  EXPECT_EQ(a[trace::Counter::kL1Reads], 12u);
  EXPECT_EQ(a[trace::Counter::kCoreCycles], 0u) << "value-initialized";
  trace::CounterBlock c = b;
  c[trace::Counter::kCgaCycles] = 1000;
  c[trace::Counter::kL1Reads] = 12;
  EXPECT_EQ(a, c);
}

TEST(CounterBlock, JsonDumpHasStableSchema) {
  trace::CounterBlock counters;
  counters[trace::Counter::kL1Reads] = 12;
  counters[trace::Counter::kCgaCycles] = 900;
  RegionProfile fft;
  fft.cycles = 100;
  fft.entries = 2;
  RegionProfile unnamed;
  unnamed.ops = 5;
  const std::map<int, RegionProfile> regions{{0, fft}, {7, unnamed}};
  std::ostringstream os;
  trace::writeCountersJson(os, counters, regions, {"fft"}, 3);
  JsonValue root = JsonParser(os.str()).parse();
  EXPECT_EQ(root.at("schema").str, "adres.counters.v1");
  EXPECT_EQ(root.at("workers").number, 3.0);
  EXPECT_EQ(root.at("counters").object.size(), trace::kNumCounters)
      << "every counter is dumped, zero or not";
  EXPECT_EQ(root.at("counters").at("l1.reads").number, 12.0);
  EXPECT_EQ(root.at("counters").at("cga.cycles").number, 900.0);
  EXPECT_EQ(root.at("counters").at("core.cycles").number, 0.0);
  const JsonValue& region = root.at("groups").at("region");
  EXPECT_EQ(region.at("fft.cycles").number, 100.0);
  EXPECT_EQ(region.at("fft.entries").number, 2.0);
  EXPECT_EQ(region.at("region7.ops").number, 5.0)
      << "an id without a name falls back to region<id>";
  EXPECT_EQ(region.object.size(), 10u) << "five metrics per region";
}

// ---------------------------------------------------------------------------
// Processor integration

KernelConfig accumulatorKernel() {
  KernelConfig k;
  k.name = "acc";
  k.ii = 1;
  k.schedLength = 1;
  k.contexts.resize(1);
  FuOp& f = k.contexts[0].fu[5];
  f.op = Opcode::ADD;
  f.src1 = SrcSel::localRf(0);
  f.src2 = SrcSel::imm();
  f.imm = 1;
  f.dst.toLocalRf = true;
  f.dst.localAddr = 0;
  k.preloads.push_back({5, 0, 10});
  k.writebacks.push_back({11, 5, 0});
  return k;
}

Program tracedProgram() {
  ProgramBuilder b("traced");
  const int kid = b.addKernel(accumulatorKernel());
  b.marker("warmup");
  b.li(10, 0);
  b.li(12, 20);
  b.markerEnd();
  b.marker("kernel region");
  b.cga(kid, 12);
  b.markerEnd();
  b.halt();
  return b.build();
}

int countKind(const std::vector<TraceEvent>& evs, TraceEventKind k) {
  int n = 0;
  for (const TraceEvent& e : evs)
    if (e.kind == k) ++n;
  return n;
}

TEST(ProcessorTracing, EmitsModeKernelRegionAndFetchEvents) {
  Processor p;
  RingBufferSink ring(1 << 14);
  p.setTrace(&ring);
  p.load(tracedProgram());
  EXPECT_EQ(p.run(), StopReason::kHalt);
  EXPECT_EQ(p.regs().peek(11), 20u) << "tracing must not change semantics";

  const auto evs = ring.events();
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(countKind(evs, TraceEventKind::kModeSwitch), 2);
  EXPECT_EQ(countKind(evs, TraceEventKind::kKernel), 1);
  EXPECT_EQ(countKind(evs, TraceEventKind::kHalt), 1);
  EXPECT_GT(countKind(evs, TraceEventKind::kVliwOp), 0);
  EXPECT_GT(countKind(evs, TraceEventKind::kICacheMiss), 0) << "cold I$";
  EXPECT_GT(countKind(evs, TraceEventKind::kFuActive), 0);
  EXPECT_EQ(countKind(evs, TraceEventKind::kRegionEnter),
            countKind(evs, TraceEventKind::kRegionExit))
      << "every region enter has a matching exit span";
  EXPECT_GE(countKind(evs, TraceEventKind::kRegionEnter), 2);

  // The kernel span covers the launch and carries the op count.
  for (const TraceEvent& e : evs)
    if (e.kind == TraceEventKind::kKernel) {
      EXPECT_GT(e.dur, 20u) << "20 trips + mode-switch overhead";
      EXPECT_GT(e.b, 0u) << "ops executed inside the kernel";
    }
  // FU-activity spans land inside [0, final cycle] on FU tracks.
  for (const TraceEvent& e : evs)
    if (e.kind == TraceEventKind::kFuActive) {
      EXPECT_LT(e.track, kCgaFus);
      EXPECT_GT(e.dur, 0u);
    }
}

TEST(ProcessorTracing, DetachedSinkDoesNotPerturbTiming) {
  Processor traced;
  RingBufferSink ring;
  traced.setTrace(&ring);
  traced.load(tracedProgram());
  traced.run();

  Processor plain;
  plain.load(tracedProgram());
  plain.run();

  EXPECT_EQ(traced.cycles(), plain.cycles())
      << "tracing is observation only — identical cycle-accurate behaviour";
  EXPECT_EQ(traced.regs().peek(11), plain.regs().peek(11));
  EXPECT_GT(ring.accepted(), 0u);
}

TEST(ProcessorTracing, RegionNamesResolveInChromeExport) {
  Processor p;
  RingBufferSink ring;
  p.setTrace(&ring);
  p.load(tracedProgram());
  p.run();
  trace::TraceNames names;
  for (const KernelConfig& k : p.program().kernels)
    names.kernels.push_back(k.name);
  names.regions = p.program().regionNames;
  std::ostringstream os;
  trace::writeChromeTrace(ring.events(), os, names);
  JsonValue root = JsonParser(os.str()).parse();
  bool kernelRegion = false, accKernel = false;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("ph").str == "M") continue;
    if (e.at("name").str == "kernel region") kernelRegion = true;
    if (e.at("name").str == "acc") accKernel = true;
  }
  EXPECT_TRUE(kernelRegion) << "region marker name resolved";
  EXPECT_TRUE(accKernel) << "kernel name resolved";
}

TEST(ProcessorCounters, RegistryCoversEverySubsystemAndResets) {
  Processor p;
  p.load(tracedProgram());
  p.run();
  const trace::CounterBlock c = trace::readCounters(p);

  // The acceptance contract: core/VLIW/CGA/stall/sleep cycles, I$, L1
  // banks, CDRF/PRF ports, DMA all present under stable names.
  const auto& names = trace::kCounterNames;
  for (const char* key :
       {"core.cycles", "vliw.cycles", "vliw.stall_cycles", "cga.cycles",
        "cga.stall_cycles", "sleep.cycles", "mode.switches",
        "icache.accesses", "icache.misses", "l1.reads", "l1.writes",
        "l1.bank_conflicts", "l1.bank_conflict_cycles", "cdrf.reads",
        "cdrf.writes", "cprf.reads", "cprf.writes", "lrf.reads",
        "lrf.writes", "dma.transfers", "dma.words"})
    EXPECT_NE(std::find(names.begin(), names.end(), key), names.end()) << key;

  EXPECT_GT(c[trace::Counter::kCoreCycles], 0u);
  EXPECT_GT(c[trace::Counter::kCgaCycles], 0u);
  EXPECT_GT(c[trace::Counter::kIcacheAccesses], 0u);
  EXPECT_EQ(c[trace::Counter::kModeSwitches], 2u);

  std::ostringstream os;
  trace::writeCountersJson(p, os);
  JsonValue root = JsonParser(os.str()).parse();
  EXPECT_EQ(root.at("schema").str, "adres.counters.v1");
  EXPECT_TRUE(root.at("groups").hasKey("region"));

  p.resetStats();
  const trace::CounterBlock after = trace::readCounters(p);
  EXPECT_EQ(after[trace::Counter::kCoreCycles], 0u);
  EXPECT_EQ(after[trace::Counter::kIcacheAccesses], 0u)
      << "reset reaches the I$";
  std::ostringstream reset;
  trace::writeCountersJson(p, reset);
  EXPECT_EQ(JsonParser(reset.str()).parse().at("counters").object.size(),
            trace::kNumCounters)
      << "schema survives reset";
}

// The reset hook behind every counter is Processor::resetStats(): after a
// run it zeroes each subsystem's counters except dma.*, which keep the
// program-load transfers on purpose (the power model charges them).
TEST(CounterRegistry, ResetInvokesHooks) {
  Processor p;
  p.load(tracedProgram());
  p.run();
  const trace::CounterBlock before = trace::readCounters(p);
  EXPECT_GT(before[trace::Counter::kCoreCycles], 0u);
  EXPECT_GT(before[trace::Counter::kDmaTransfers], 0u);

  p.resetStats();
  const trace::CounterBlock after = trace::readCounters(p);
  for (std::size_t i = 0; i < trace::kNumCounters; ++i) {
    const std::string_view key = trace::kCounterNames[i];
    if (key.starts_with("dma."))
      EXPECT_EQ(after.values[i], before.values[i]) << key;
    else
      EXPECT_EQ(after.values[i], 0u) << key;
  }
}

}  // namespace
}  // namespace adres
