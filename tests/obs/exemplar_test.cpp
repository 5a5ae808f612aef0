// ExemplarStore: quantile arming, capture/reject decisions, the bounded
// evict-fastest-of-the-slow policy (including on-disk file deletion), and
// the atomically-written adres.exemplar.v1 file format.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_min.hpp"
#include "obs/exemplar.hpp"
#include "obs/histogram.hpp"
#include "trace/span.hpp"

namespace adres::obs {
namespace {

using json::JsonParser;
using json::JsonValue;

constexpr const char* kDir = "exemplar_test_store";

/// A latency histogram (nanoseconds) holding `values` microsecond samples.
HistogramSnapshot latencyHist(const std::vector<double>& valuesUs) {
  LogLinearHistogram h;
  for (const double v : valuesUs) h.record(static_cast<u64>(v * 1000.0));
  return h.snapshot();
}

trace::PacketSpans spansFor(u64 jobId) {
  return trace::buildPacketSpans(jobId, /*tag=*/0, /*worker=*/0,
                                 /*enqueueUs=*/0, /*dispatchUs=*/1,
                                 /*decodeStartUs=*/2, /*decodeEndUs=*/10,
                                 /*decodeCycles=*/100, {{0, 0, 100, 50}},
                                 {"sync"});
}

struct Exemplars : ::testing::Test {
  void SetUp() override { std::filesystem::remove_all(kDir); }
  void TearDown() override { std::filesystem::remove_all(kDir); }

  ExemplarConfig config(std::size_t maxExemplars = 8, u64 minCount = 2) {
    ExemplarConfig cfg;
    cfg.enabled = true;
    cfg.dir = kDir;
    cfg.quantile = 0.5;
    cfg.maxExemplars = maxExemplars;
    cfg.minCount = minCount;
    return cfg;
  }

  bool capture(ExemplarStore& store, u64 jobId, double latencyUs,
               const HistogramSnapshot& hist) {
    const std::vector<TraceEvent> ring = {
        {10, 5, TraceEventKind::kKernel, 0, 1, 64},
        {20, 0, TraceEventKind::kModeSwitch, 0, 1, 0}};
    return store.maybeCapture(spansFor(jobId), ring, /*ringAccepted=*/2,
                              /*ringDropped=*/0, /*ringCapacity=*/16,
                              latencyUs, /*queueWaitUs=*/1.0,
                              /*simCycles=*/100, hist);
  }
};

TEST_F(Exemplars, ThresholdIsInfiniteUntilArmedThenQuantileBased) {
  ExemplarStore store(config(8, /*minCount=*/4));
  EXPECT_TRUE(std::isinf(store.thresholdUs(latencyHist({}))));
  EXPECT_TRUE(std::isinf(store.thresholdUs(latencyHist({50, 60, 70}))))
      << "below minCount";
  const double t = store.thresholdUs(latencyHist({50, 60, 70, 80}));
  EXPECT_TRUE(std::isfinite(t));
  // p50 of {50,60,70,80} µs, within one log-linear bucket width.
  EXPECT_NEAR(t, 60.0, 60.0 / 16.0);

  // An unarmed store captures nothing, no matter how slow the packet.
  EXPECT_FALSE(capture(store, 1, 1e9, latencyHist({50})));
  EXPECT_EQ(store.captured(), 0u);
}

TEST_F(Exemplars, CapturesAboveThresholdAndWritesSchemaFile) {
  ExemplarStore store(config());
  const HistogramSnapshot hist = latencyHist({50, 60, 70, 80});
  EXPECT_FALSE(capture(store, 1, 10.0, hist)) << "fast packet rejected";
  ASSERT_TRUE(capture(store, 2, 90.0, hist));
  EXPECT_EQ(store.captured(), 1u);
  EXPECT_EQ(store.evicted(), 0u);

  const std::vector<ExemplarRecord> recs = store.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].jobId, 2u);
  EXPECT_EQ(recs[0].traceId, trace::packetTraceId(2, 0));
  EXPECT_DOUBLE_EQ(recs[0].latencyUs, 90.0);
  EXPECT_EQ(recs[0].simCycles, 100u);

  // The persisted file is final (no .tmp residue) and schema-complete.
  ASSERT_TRUE(std::filesystem::exists(recs[0].path));
  EXPECT_FALSE(std::filesystem::exists(recs[0].path + ".tmp"));
  std::stringstream body;
  body << std::ifstream(recs[0].path).rdbuf();
  const JsonValue root = JsonParser(body.str()).parse();
  EXPECT_EQ(root.at("schema").str, "adres.exemplar.v1");
  EXPECT_EQ(root.at("trace_id").str, trace::traceIdHex(recs[0].traceId));
  EXPECT_EQ(root.at("job_id").number, 2.0);
  EXPECT_EQ(root.at("latency_us").number, 90.0);
  ASSERT_EQ(root.at("spans").array.size(), 5u) << "4 phases + 1 region";
  EXPECT_EQ(root.at("spans").array[0].at("kind").str, "packet");
  EXPECT_EQ(root.at("spans").array[4].at("name").str, "sync");
  EXPECT_EQ(root.at("ring").at("capacity").number, 16.0);
  ASSERT_EQ(root.at("ring").at("events").array.size(), 2u);
  EXPECT_EQ(root.at("ring").at("events").array[0].at("kind").str, "kernel");
}

TEST_F(Exemplars, BoundedStoreEvictsFastestOfTheSlowWithItsFile) {
  ExemplarStore store(config(/*maxExemplars=*/2));
  const HistogramSnapshot hist = latencyHist({10, 20});  // p50 arms low
  ASSERT_TRUE(capture(store, 1, 100.0, hist));
  ASSERT_TRUE(capture(store, 2, 300.0, hist));
  const std::string fastestPath = store.records().back().path;
  EXPECT_EQ(store.records().back().jobId, 1u);

  // Full + slower than the fastest retained: evicts job 1 and its file.
  ASSERT_TRUE(capture(store, 3, 200.0, hist));
  EXPECT_EQ(store.captured(), 3u);
  EXPECT_EQ(store.evicted(), 1u);
  const std::vector<ExemplarRecord> recs = store.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].jobId, 2u) << "slowest first";
  EXPECT_EQ(recs[1].jobId, 3u);
  EXPECT_FALSE(std::filesystem::exists(fastestPath))
      << "evicted exemplar file deleted";
  for (const ExemplarRecord& r : recs)
    EXPECT_TRUE(std::filesystem::exists(r.path));

  // Full + faster than everything retained: rejected, store unchanged.
  EXPECT_FALSE(capture(store, 4, 150.0, hist));
  EXPECT_EQ(store.captured(), 3u);
  EXPECT_EQ(store.records().size(), 2u);
}

TEST_F(Exemplars, FailedWriteCapturesNothing) {
  // The store's directory sits under a regular file, so it cannot exist
  // and no exemplar file can be opened there.
  std::filesystem::create_directories(kDir);
  const std::string blocker = std::string(kDir) + "/file";
  std::ofstream(blocker) << "not a directory";
  ExemplarConfig cfg = config(/*maxExemplars=*/8, /*minCount=*/1);
  cfg.dir = blocker + "/exemplars";
  ExemplarStore store(cfg);

  const HistogramSnapshot hist = latencyHist({10, 20, 30});
  EXPECT_FALSE(capture(store, 1, 500.0, hist));
  EXPECT_EQ(store.captured(), 0u);
  EXPECT_TRUE(store.records().empty())
      << "no record, so no Prometheus exemplar, for an unwritten file";
  EXPECT_FALSE(std::filesystem::exists(cfg.dir));
}

}  // namespace
}  // namespace adres::obs
