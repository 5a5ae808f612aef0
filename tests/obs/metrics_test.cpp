// MetricsRegistry + exporters + embedded MetricsServer: snapshot ordering,
// Prometheus text exposition, adres.metrics.v1 JSON round-trip (validated
// with the shared tests/support/json_min.hpp parser), dynamic families,
// clear() semantics, and a real localhost scrape through httpGet.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/json_min.hpp"
#include "obs/buildinfo.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_server.hpp"
#include "obs/slo.hpp"

namespace adres::obs {
namespace {

using json::JsonParser;
using json::JsonValue;

TEST(MetricsRegistry, SnapshotOrdersByNameAndTypesSamples) {
  MetricsRegistry reg;
  u64 hits = 41;
  reg.addGauge("z_depth", "queue depth", [] { return 3.0; });
  reg.addCounter("a_hits_total", "hits", [&] { return static_cast<double>(hits); });
  reg.addCounter("a_hits_total", "hits", [] { return 1.0; },
                 {{"worker", "1"}});

  MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.samples.size(), 3u);
  EXPECT_EQ(s.samples[0].name, "a_hits_total");
  EXPECT_EQ(s.samples[0].value, 41.0);
  EXPECT_EQ(s.samples[1].labels.size(), 1u) << "registration order in family";
  EXPECT_EQ(s.samples[2].name, "z_depth");
  EXPECT_EQ(s.samples[2].type, MetricType::kGauge);
  EXPECT_EQ(s.sequence, 1u);

  hits = 42;
  EXPECT_EQ(reg.snapshot().samples[0].value, 42.0) << "getters read live";
  EXPECT_EQ(reg.snapshot().sequence, 3u);
}

TEST(MetricsRegistry, DynamicFamilyExpandsPerSnapshot) {
  MetricsRegistry reg;
  int n = 1;
  reg.addCounterFamily("adres_sim_counter", "sim counters", [&n] {
    std::vector<std::pair<Labels, double>> out;
    for (int i = 0; i < n; ++i)
      out.push_back({Labels{{"name", "c" + std::to_string(i)}},
                     static_cast<double>(10 * i)});
    return out;
  });
  EXPECT_EQ(reg.snapshot().samples.size(), 1u);
  n = 3;
  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.samples.size(), 3u) << "family size follows the live key set";
  EXPECT_EQ(s.samples[2].labels[0].second, "c2");
  EXPECT_EQ(s.samples[2].value, 20.0);
}

TEST(MetricsRegistry, ClearDropsEverything) {
  MetricsRegistry reg;
  reg.addGauge("g", "gauge", [] { return 1.0; });
  reg.addSummary("s", "summary", 1.0, [] { return HistogramSnapshot{}; });
  EXPECT_EQ(reg.snapshot().samples.size(), 1u);
  reg.clear();
  EXPECT_TRUE(reg.snapshot().samples.empty());
  EXPECT_TRUE(reg.snapshot().summaries.empty());
  EXPECT_TRUE(reg.helpTexts().empty());
}

TEST(MetricsExport, PrometheusTextCarriesHelpTypeLabelsAndSummaries) {
  MetricsRegistry reg;
  reg.addCounter("farm_packets_total", "decoded packets", [] { return 7.0; });
  reg.addGauge("farm_util", "utilization", [] { return 0.5; },
               {{"worker", "0"}});
  LogLinearHistogram h;
  for (u64 v = 1; v <= 100; ++v) h.record(v * 1000);  // ns
  reg.addSummary("farm_latency_us", "decode latency", 1e-3,
                 [&h] { return h.snapshot(); });

  std::ostringstream os;
  reg.writePrometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP farm_packets_total decoded packets\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE farm_packets_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("farm_packets_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("farm_util{worker=\"0\"} 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE farm_latency_us summary\n"), std::string::npos);
  EXPECT_NE(text.find("farm_latency_us{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("farm_latency_us{quantile=\"0.999\"}"), std::string::npos);
  EXPECT_NE(text.find("farm_latency_us_count 100\n"), std::string::npos);
  // scale 1e-3 applied: sum of 1000..100000 ns == 5050 us.
  EXPECT_NE(text.find("farm_latency_us_sum 5050\n"), std::string::npos);
}

TEST(MetricsExport, PrometheusLabelValuesEscapeNewlineQuoteAndBackslash) {
  MetricsRegistry reg;
  reg.addGauge("g", "gauge", [] { return 1.0; },
               {{"reason", "a\nb \"q\" c\\d\te"}});
  std::ostringstream os;
  reg.writePrometheus(os);
  // The text format escapes exactly \\, \" and \n; a tab passes through.
  EXPECT_NE(os.str().find("g{reason=\"a\\nb \\\"q\\\" c\\\\d\te\"} 1\n"),
            std::string::npos)
      << os.str();
}

TEST(MetricsExport, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.addCounter("packets_total", "packets", [] { return 12.0; });
  reg.addGauge("depth", "with \"quotes\" in help", [] { return 2.5; },
               {{"queue", "rx\"0\""}});
  LogLinearHistogram h;
  for (u64 v = 1; v <= 9; ++v) h.record(v);
  reg.addSummary("lat", "latency", 1.0, [&h] { return h.snapshot(); });

  std::ostringstream os;
  reg.writeJson(os);
  const JsonValue root = JsonParser(os.str()).parse();  // must not throw
  EXPECT_EQ(root.at("schema").str, "adres.metrics.v1");
  EXPECT_EQ(root.at("sequence").number, 1.0);
  ASSERT_EQ(root.at("metrics").array.size(), 2u);
  const JsonValue& depth = root.at("metrics").array[0];
  EXPECT_EQ(depth.at("name").str, "depth");
  EXPECT_EQ(depth.at("type").str, "gauge");
  EXPECT_EQ(depth.at("labels").at("queue").str, "rx\"0\"");
  EXPECT_EQ(depth.at("value").number, 2.5);
  const JsonValue& pkts = root.at("metrics").array[1];
  EXPECT_EQ(pkts.at("type").str, "counter");
  EXPECT_EQ(pkts.at("value").number, 12.0);
  ASSERT_EQ(root.at("summaries").array.size(), 1u);
  const JsonValue& lat = root.at("summaries").array[0];
  EXPECT_EQ(lat.at("count").number, 9.0);
  EXPECT_EQ(lat.at("sum").number, 45.0);
  EXPECT_EQ(lat.at("min").number, 1.0);
  EXPECT_EQ(lat.at("max").number, 9.0);
  EXPECT_EQ(lat.at("p50").number, 5.0) << "small values are bucket-exact";
  EXPECT_TRUE(lat.hasKey("p999"));
}

TEST(MetricsExport, HistogramBucketsAreCumulative) {
  // addHistogram renders a Prometheus histogram in text format 0.0.4, which
  // defines no exemplars: power-of-two `le` bounds aligned with the
  // log-linear decades and cumulative counts, nothing after the count.
  MetricsRegistry reg;
  LogLinearHistogram h;
  for (u64 v = 1; v <= 8; ++v) h.record(v);
  reg.addHistogram("lat_us", "decode latency", 1.0,
                   [&h] { return h.snapshot(); });

  std::ostringstream os;
  reg.writePrometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE lat_us histogram\n"), std::string::npos);
  // Values 1..8 → bounds 1,2,4,8,16; cumulative counts are "values < bound".
  EXPECT_NE(text.find("lat_us_bucket{le=\"1\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"4\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"8\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"16\"} 8\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 8\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 36\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 8\n"), std::string::npos);
  EXPECT_EQ(text.find(" # {"), std::string::npos) << "no exemplar suffix";

  // The JSON exporter carries the same histogram.
  std::ostringstream js;
  reg.writeJson(js);
  const JsonValue root = JsonParser(js.str()).parse();
  ASSERT_EQ(root.at("histograms").array.size(), 1u);
  const JsonValue& lat = root.at("histograms").array[0];
  EXPECT_EQ(lat.at("name").str, "lat_us");
  EXPECT_EQ(lat.at("count").number, 8.0);
  EXPECT_EQ(lat.at("sum").number, 36.0);
  EXPECT_FALSE(lat.hasKey("exemplars"));

  // clear() drops histograms along with everything else.
  reg.clear();
  EXPECT_TRUE(reg.snapshot().histograms.empty());
}

TEST(MetricsServer, ReadyzReflectsTheInstalledReadinessCheck) {
  MetricsRegistry reg;
  MetricsServer server(reg, 0);
  ASSERT_GT(server.port(), 0);

  // No check installed: optimistically ready (bare scrape targets).
  std::string status;
  EXPECT_EQ(httpGet("127.0.0.1", server.port(), "/readyz", &status), "ready\n");
  EXPECT_NE(status.find("200"), std::string::npos);

  bool ready = false;
  server.setReadiness([&ready](std::string* reason) {
    if (!ready && reason) *reason = "1/2 workers warm";
    return ready;
  });
  const std::string body =
      httpGet("127.0.0.1", server.port(), "/readyz", &status);
  EXPECT_NE(status.find("503"), std::string::npos)
      << "liveness (/healthz) and readiness (/readyz) must split";
  EXPECT_EQ(body, "not ready: 1/2 workers warm\n");
  EXPECT_EQ(httpGet("127.0.0.1", server.port(), "/healthz"), "ok\n")
      << "a warming process is alive, just not ready";

  ready = true;
  EXPECT_EQ(httpGet("127.0.0.1", server.port(), "/readyz", &status), "ready\n");
  EXPECT_NE(status.find("200"), std::string::npos);

  server.setReadiness({});  // detach: back to optimistic
  EXPECT_EQ(httpGet("127.0.0.1", server.port(), "/readyz"), "ready\n");
  server.stop();
  reg.clear();
}

TEST(MetricsServer, SloEndpointServesEngineJsonOr404) {
  MetricsRegistry reg;
  u64 divergences = 0;
  reg.addCounter("adres_farm_divergences_total", "t", [&] {
    return static_cast<double>(divergences);
  });
  MetricsServer server(reg, 0);
  ASSERT_GT(server.port(), 0);

  std::string status;
  EXPECT_EQ(httpGet("127.0.0.1", server.port(), "/slo", &status),
            "no SLO engine attached\n");
  EXPECT_NE(status.find("404"), std::string::npos);

  SloEngine engine(reg, parseSloSpecList("integrity: divergences < 1"));
  server.setSloEngine(&engine);
  divergences = 2;
  const std::string body = httpGet("127.0.0.1", server.port(), "/slo", &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  const JsonValue root = JsonParser(body).parse();
  EXPECT_EQ(root.at("schema").str, "adres.slo.v1");
  ASSERT_EQ(root.at("slos").array.size(), 1u);
  const JsonValue& st = root.at("slos").array[0];
  EXPECT_EQ(st.at("name").str, "integrity");
  EXPECT_EQ(st.at("value").number, 2.0) << "/slo evaluates live per request";
  EXPECT_TRUE(st.at("breaching").boolean);

  server.setSloEngine(nullptr);  // detach before the engine dies
  EXPECT_EQ(httpGet("127.0.0.1", server.port(), "/slo", &status),
            "no SLO engine attached\n");
  server.stop();
  reg.clear();
}

TEST(BuildInfo, JsonSchemaCarriesVersionAndToolchain) {
  std::ostringstream os;
  writeBuildInfoJson(os);
  const JsonValue root = JsonParser(os.str()).parse();  // must not throw
  EXPECT_EQ(root.at("schema").str, "adres.buildinfo.v1");
  EXPECT_FALSE(root.at("version").str.empty());
  EXPECT_FALSE(root.at("git_describe").str.empty());
  EXPECT_FALSE(root.at("compiler").str.empty());
  EXPECT_TRUE(root.hasKey("build_type"));
  EXPECT_TRUE(root.hasKey("sanitize"));
  EXPECT_EQ(root.at("version").str, buildInfo().version);
}

TEST(MetricsServer, ServesBuildinfoAndCountsItsOwnScrapes) {
  MetricsRegistry reg;
  MetricsServer server(reg, 0);
  ASSERT_GT(server.port(), 0);
  server.registerSelfMetrics(reg);

  // Request 1: /buildinfo serves the same JSON the writer produces.
  std::string status;
  const std::string body =
      httpGet("127.0.0.1", server.port(), "/buildinfo", &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  const JsonValue root = JsonParser(body).parse();
  EXPECT_EQ(root.at("schema").str, "adres.buildinfo.v1");
  EXPECT_EQ(root.at("version").str, buildInfo().version);

  // Request 2: the scrape counter includes the in-flight request, so the
  // first /metrics after /buildinfo reads exactly 2.
  const std::string scrape1 = httpGet("127.0.0.1", server.port(), "/metrics");
  EXPECT_NE(scrape1.find("adres_metrics_scrapes_total 2\n"),
            std::string::npos);
  // Request 3: both prior requests have recorded handling durations by the
  // time this one is served (the serve loop is sequential).
  const std::string scrape2 = httpGet("127.0.0.1", server.port(), "/metrics");
  EXPECT_NE(scrape2.find("adres_metrics_scrapes_total 3\n"),
            std::string::npos);
  EXPECT_NE(scrape2.find("# TYPE adres_metrics_scrape_duration_us summary\n"),
            std::string::npos);
  EXPECT_NE(scrape2.find("adres_metrics_scrape_duration_us_count 2\n"),
            std::string::npos);

  server.stop();
  reg.clear();
}

TEST(MetricsServer, ServesPrometheusJsonHealthAnd404OverRealHttp) {
  MetricsRegistry reg;
  reg.addCounter("scrape_me_total", "a counter", [] { return 3.0; });
  MetricsServer server(reg, 0);  // ephemeral port
  ASSERT_GT(server.port(), 0);

  std::string status;
  const std::string text =
      httpGet("127.0.0.1", server.port(), "/metrics", &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(text.find("scrape_me_total 3\n"), std::string::npos);

  const std::string body =
      httpGet("localhost", server.port(), "/metrics.json", &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  const JsonValue root = JsonParser(body).parse();
  EXPECT_EQ(root.at("schema").str, "adres.metrics.v1");
  EXPECT_EQ(root.at("metrics").array[0].at("value").number, 3.0);

  EXPECT_EQ(httpGet("127.0.0.1", server.port(), "/healthz"), "ok\n");
  httpGet("127.0.0.1", server.port(), "/nope", &status);
  EXPECT_NE(status.find("404"), std::string::npos);
  EXPECT_GE(server.requests(), 4u);

  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(httpGet("127.0.0.1", server.port(), "/metrics"), "")
      << "stopped server no longer answers";
}

}  // namespace
}  // namespace adres::obs
