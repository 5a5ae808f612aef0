// adres.postmortem.v1 bundles: write -> load round-trip fidelity, raw JSON
// schema validation via json_min, and the bounded atomic PostmortemWriter
// store (eviction, counters, on-disk lifecycle).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/json_min.hpp"
#include "obs/postmortem.hpp"
#include "trace/span.hpp"

namespace adres::obs {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

DecodeSummary record(u64 cycles, bool flipBit) {
  DecodeSummary r;
  r.detected = true;
  r.ltfStart = 160;
  r.stop = "halt";
  r.cycles = cycles;
  r.totalOps = 90000;
  r.bits.assign(96, 0);
  for (std::size_t i = 0; i < r.bits.size(); i += 2) r.bits[i] = 1;
  if (flipBit) r.bits[17] ^= 1;
  RegionProfile rp;
  rp.cycles = cycles / 2;
  rp.vliwCycles = cycles / 4;
  rp.cgaCycles = cycles / 4;
  rp.ops = 45000;
  rp.vliwOps = 15000;
  rp.cgaOps = 30000;
  rp.entries = 3;
  r.regions[0] = rp;
  rp.entries = 1;
  r.regions[4] = rp;
  return r;
}

/// A bundle exercising every serialized field.
PostmortemBundle fullBundle() {
  PostmortemBundle b;
  b.trigger = "divergence";
  b.reason = "1 of 96 payload bits differ";
  b.jobId = 41;
  b.tag = 7;
  b.worker = 3;
  b.traceId = 0xDEADBEEF12345678ull;
  b.modulation = 3;  // kQam64
  b.numSymbols = 2;
  b.execTier = "native";
  b.shadowTier = "reference";
  b.maxCycles = 200'000'000;
  b.faultInjectSeed = 0xFA0171ull;
  for (int c = 0; c < 2; ++c)
    for (int i = 0; i < 64; ++i)
      b.rx[c].push_back(cint16{static_cast<i16>(i - 32 + c),
                               static_cast<i16>(-i + 3 * c)});
  b.primary = record(123456, /*flipBit=*/true);
  b.shadow = record(123456, /*flipBit=*/false);

  b.spans.traceId = b.traceId;
  b.spans.jobId = b.jobId;
  b.spans.worker = b.worker;
  b.spans.tag = b.tag;
  trace::Span sp;
  sp.kind = trace::SpanKind::kDecode;
  sp.name = "decode";
  sp.startUs = 12.5;
  sp.durUs = 800.25;
  sp.startCycle = 0;
  sp.cycles = 123456;
  b.spans.spans.push_back(sp);
  sp.kind = trace::SpanKind::kRegion;
  sp.name = "fft";
  sp.ops = 45000;
  b.spans.spans.push_back(sp);

  TraceEvent ev;
  ev.cycle = 1000;
  ev.dur = 16;
  ev.kind = TraceEventKind::kKernel;
  ev.track = 2;
  ev.a = 5;
  ev.b = 640;
  b.ring.push_back(ev);
  ev.cycle = 1016;
  ev.dur = 0;
  ev.kind = TraceEventKind::kModeSwitch;
  b.ring.push_back(ev);
  b.ringAccepted = 5000;
  b.ringDropped = 904;
  b.ringCapacity = 4096;
  return b;
}

void expectRecordEq(const DecodeSummary& a, const DecodeSummary& b) {
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.ltfStart, b.ltfStart);
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.totalOps, b.totalOps);
  EXPECT_EQ(a.bits, b.bits);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (const auto& [id, rp] : a.regions) {
    ASSERT_TRUE(b.regions.count(id));
    const RegionProfile& o = b.regions.at(id);
    EXPECT_EQ(rp.cycles, o.cycles);
    EXPECT_EQ(rp.vliwCycles, o.vliwCycles);
    EXPECT_EQ(rp.cgaCycles, o.cgaCycles);
    EXPECT_EQ(rp.ops, o.ops);
    EXPECT_EQ(rp.vliwOps, o.vliwOps);
    EXPECT_EQ(rp.cgaOps, o.cgaOps);
    EXPECT_EQ(rp.entries, o.entries);
  }
}

TEST(PostmortemBundleIo, WriteLoadRoundTripsEveryField) {
  PostmortemConfig cfg;
  cfg.enabled = true;
  cfg.dir = freshDir("adres_pm_roundtrip");
  PostmortemWriter writer(cfg);

  const PostmortemBundle b = fullBundle();
  const std::string path = writer.write(b);
  ASSERT_FALSE(path.empty());
  ASSERT_TRUE(fs::exists(path));

  const PostmortemBundle r = loadPostmortemBundle(path);
  EXPECT_EQ(r.trigger, b.trigger);
  EXPECT_EQ(r.reason, b.reason);
  EXPECT_EQ(r.jobId, b.jobId);
  EXPECT_EQ(r.tag, b.tag);
  EXPECT_EQ(r.worker, b.worker);
  EXPECT_EQ(r.traceId, b.traceId) << "trace id must survive via hex string";
  EXPECT_EQ(r.modulation, b.modulation);
  EXPECT_EQ(r.numSymbols, b.numSymbols);
  EXPECT_EQ(r.execTier, b.execTier);
  EXPECT_EQ(r.shadowTier, b.shadowTier);
  EXPECT_EQ(r.maxCycles, b.maxCycles);
  EXPECT_EQ(r.faultInjectSeed, b.faultInjectSeed);
  EXPECT_EQ(r.rx[0], b.rx[0]) << "rx payload must be sample-exact";
  EXPECT_EQ(r.rx[1], b.rx[1]);
  expectRecordEq(r.primary, b.primary);
  ASSERT_TRUE(r.shadow.has_value());
  expectRecordEq(*r.shadow, *b.shadow);

  EXPECT_EQ(r.spans.traceId, b.spans.traceId);
  ASSERT_EQ(r.spans.spans.size(), b.spans.spans.size());
  for (std::size_t i = 0; i < b.spans.spans.size(); ++i) {
    EXPECT_EQ(r.spans.spans[i].kind, b.spans.spans[i].kind);
    EXPECT_EQ(r.spans.spans[i].name, b.spans.spans[i].name);
    EXPECT_DOUBLE_EQ(r.spans.spans[i].durUs, b.spans.spans[i].durUs);
    EXPECT_EQ(r.spans.spans[i].cycles, b.spans.spans[i].cycles);
    EXPECT_EQ(r.spans.spans[i].ops, b.spans.spans[i].ops);
  }
  ASSERT_EQ(r.ring.size(), b.ring.size());
  for (std::size_t i = 0; i < b.ring.size(); ++i) {
    EXPECT_EQ(r.ring[i].cycle, b.ring[i].cycle);
    EXPECT_EQ(r.ring[i].dur, b.ring[i].dur);
    EXPECT_EQ(r.ring[i].kind, b.ring[i].kind);
    EXPECT_EQ(r.ring[i].track, b.ring[i].track);
    EXPECT_EQ(r.ring[i].a, b.ring[i].a);
    EXPECT_EQ(r.ring[i].b, b.ring[i].b);
  }
  EXPECT_EQ(r.ringAccepted, b.ringAccepted);
  EXPECT_EQ(r.ringDropped, b.ringDropped);
  EXPECT_EQ(r.ringCapacity, b.ringCapacity);
}

TEST(PostmortemBundleIo, AShadowlessBundleRoundTripsInvalidShadow) {
  PostmortemBundle b = fullBundle();
  b.shadow.reset();  // watchdog/SLO-breach bundles record no shadow
  b.shadowTier.clear();
  std::ostringstream os;
  writePostmortemJson(b, os);
  const std::string path =
      testing::TempDir() + "adres_pm_shadowless.json";
  std::ofstream(path) << os.str();
  const PostmortemBundle r = loadPostmortemBundle(path);
  expectRecordEq(r.primary, b.primary);
  EXPECT_FALSE(r.shadow.has_value());
  EXPECT_EQ(r.shadowTier, "");
}

TEST(PostmortemBundleIo, ControlCharactersInTheReasonRoundTrip) {
  PostmortemBundle b = fullBundle();
  b.reason = "line1\nline2\ttab";
  std::ostringstream os;
  writePostmortemJson(b, os);
  const std::string path = testing::TempDir() + "adres_pm_reason.json";
  std::ofstream(path) << os.str();
  EXPECT_EQ(loadPostmortemBundle(path).reason, "line1\nline2\ttab");
}

TEST(PostmortemBundleIo, RawJsonMatchesTheV1Schema) {
  MetricsRegistry reg;
  reg.addCounter("adres_farm_divergences_total", "t", [] { return 1.0; });
  std::ostringstream os;
  writePostmortemJson(fullBundle(), os, &reg);
  reg.clear();

  json::JsonParser parser(os.str());
  const json::JsonValue root = parser.parse();
  EXPECT_EQ(root.at("schema").str, "adres.postmortem.v1");
  EXPECT_EQ(root.at("trigger").str, "divergence");
  // 64-bit ids ride as 16-hex-digit strings, immune to double rounding.
  EXPECT_EQ(root.at("trace_id").str, "deadbeef12345678");
  EXPECT_EQ(root.at("trace_id").str.size(), 16u);
  EXPECT_EQ(root.at("config").at("exec_tier").str, "native");
  EXPECT_EQ(root.at("config").at("num_symbols").number, 2.0);
  EXPECT_TRUE(root.hasKey("buildinfo"));
  // The registry rides along as its Prometheus exposition, one string.
  ASSERT_TRUE(root.hasKey("metrics"));
  ASSERT_EQ(root.at("metrics").type, json::JsonValue::kString);
  EXPECT_NE(root.at("metrics").str.find("adres_farm_divergences_total 1\n"),
            std::string::npos)
      << root.at("metrics").str;
  EXPECT_TRUE(root.at("primary").at("detected").boolean);
  EXPECT_EQ(root.at("rx").array.size(), 2u);
}

TEST(PostmortemWriter, BoundsTheStoreByEvictingOldest) {
  PostmortemConfig cfg;
  cfg.enabled = true;
  cfg.dir = freshDir("adres_pm_evict");
  cfg.maxBundles = 3;
  PostmortemWriter writer(cfg);

  PostmortemBundle b = fullBundle();
  std::vector<std::string> written;
  for (int i = 0; i < 5; ++i) {
    b.jobId = static_cast<u64>(i);
    written.push_back(writer.write(b));
  }
  EXPECT_EQ(writer.written(), 5u);
  EXPECT_EQ(writer.evicted(), 2u);
  const std::vector<std::string> kept = writer.paths();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept.front(), written[2]) << "oldest retained is write #3";
  EXPECT_EQ(kept.back(), written[4]);
  EXPECT_FALSE(fs::exists(written[0]));
  EXPECT_FALSE(fs::exists(written[1]));
  for (const std::string& p : kept) {
    EXPECT_TRUE(fs::exists(p));
    // Every retained file is a complete, parseable bundle (atomic writes:
    // no torn tmp states are ever visible under the final name).
    EXPECT_NO_THROW(loadPostmortemBundle(p));
  }
}

TEST(PostmortemWriter, FailedWriteReturnsEmptyAndIsNotCounted) {
  // The store's directory sits under a regular file, so it cannot exist
  // and no bundle can be opened there.
  const std::string dir = freshDir("adres_pm_blocked");
  fs::create_directories(dir);
  const std::string blocker = dir + "/file";
  std::ofstream(blocker) << "not a directory";
  PostmortemConfig cfg;
  cfg.enabled = true;
  cfg.dir = blocker + "/bundles";
  PostmortemWriter writer(cfg);

  EXPECT_EQ(writer.write(fullBundle()), "");
  EXPECT_EQ(writer.written(), 0u) << "a failed bundle is not counted";
  EXPECT_TRUE(writer.paths().empty()) << "nor retained";
  EXPECT_FALSE(fs::exists(cfg.dir));
  fs::remove_all(dir);
}

TEST(PostmortemBundleIo, LoadRejectsMissingOrForeignFiles) {
  EXPECT_THROW(loadPostmortemBundle(testing::TempDir() + "adres_pm_nope.json"),
               SimError);
  const std::string foreign = testing::TempDir() + "adres_pm_foreign.json";
  std::ofstream(foreign) << "{\"schema\": \"adres.counters.v1\"}";
  EXPECT_THROW(loadPostmortemBundle(foreign), SimError);
}

}  // namespace
}  // namespace adres::obs
