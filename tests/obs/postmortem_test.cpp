// adres.postmortem.v1 bundles: write -> load round-trip fidelity, raw JSON
// schema validation via json_min, a loader that fails closed on malformed
// fields, and the bounded atomic PostmortemWriter store (eviction,
// counters, file naming, on-disk lifecycle).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/json_min.hpp"
#include "obs/postmortem.hpp"

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

TEST(PostmortemBundleIo, MalformedFieldsFailClosedNamingTheKey) {
  // Each edit of a well-formed bundle makes one field unrepresentable in
  // its type; the load must throw naming that key instead of casting the
  // double (undefined behaviour out of range) or reading an empty value.
  std::ostringstream os;
  writePostmortemJson(fullBundle(), os);
  const std::string good = os.str();
  const struct {
    const char* from;
    const char* to;
    const char* key;
  } cases[] = {
      {"\"worker\": 3,", "\"worker\": 1e30,", "worker"},
      {"\"job_id\": 41,", "\"job_id\": -1,", "job_id"},
      {"[-32,0,", "[40000,0,", "rx"},  // outside a 16-bit sample
      {"\"max_cycles\": 200000000", "\"max_cycles\": \"abc\"",
       "max_cycles"},
      {"\"ltf_start\": 160", "\"ltf_start\": 160.5", "ltf_start"},
      {"\"regions\": [", "\"regions\": {\"a\": 1}, \"x\": [", "regions"},
  };
  const std::string path = testing::TempDir() + "adres_pm_malformed.json";
  for (const auto& c : cases) {
    std::string text = good;
    const std::size_t at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from;
    text.replace(at, std::strlen(c.from), c.to);
    std::ofstream(path) << text;
    try {
      (void)loadPostmortemBundle(path);
      ADD_FAILURE() << c.to << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << e.what();
    }
  }
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

TEST(PostmortemWriter, WritersSharingADirectoryKeepEveryBundle) {
  // One farm per bench_farm row: each has its own writer on the same
  // directory, and two rows can capture the same packet.
  PostmortemConfig cfg;
  cfg.enabled = true;
  cfg.dir = freshDir("adres_pm_shared");
  PostmortemWriter first(cfg);
  PostmortemWriter second(cfg);

  const PostmortemBundle b = fullBundle();
  const std::string a = first.write(b);
  const std::string c = second.write(b);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a, c) << "a second writer must not reuse the first's file name";
  std::size_t files = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(cfg.dir)) {
    EXPECT_NO_THROW(loadPostmortemBundle(e.path().string()));
    ++files;
  }
  EXPECT_EQ(files, 2u);
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
