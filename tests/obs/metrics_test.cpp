// MetricsRegistry + Prometheus exporter + embedded MetricsServer: snapshot
// ordering, the text exposition, dynamic families, clear() semantics, real
// localhost scrapes through httpGet, and the per-connection request deadline
// that keeps a slow client from stalling the single serve thread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "common/json_min.hpp"
#include "obs/buildinfo.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_server.hpp"

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

  hits = 42;
  EXPECT_EQ(reg.snapshot().samples[0].value, 42.0) << "getters read live";
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

TEST(MetricsServer, ServesPrometheusHealthAnd404OverRealHttp) {
  MetricsRegistry reg;
  reg.addCounter("scrape_me_total", "a counter", [] { return 3.0; });
  MetricsServer server(reg, 0);  // ephemeral port
  ASSERT_GT(server.port(), 0);

  std::string status;
  const std::string text =
      httpGet("127.0.0.1", server.port(), "/metrics", &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(text.find("scrape_me_total 3\n"), std::string::npos);

  // The Prometheus text is the only rendering: no JSON copy, no /slo.
  EXPECT_EQ(httpGet("localhost", server.port(), "/metrics.json", &status),
            "not found\n");
  EXPECT_NE(status.find("404"), std::string::npos);
  httpGet("127.0.0.1", server.port(), "/slo", &status);
  EXPECT_NE(status.find("404"), std::string::npos);

  EXPECT_EQ(httpGet("127.0.0.1", server.port(), "/healthz"), "ok\n");
  httpGet("127.0.0.1", server.port(), "/nope", &status);
  EXPECT_NE(status.find("404"), std::string::npos);
  EXPECT_GE(server.requests(), 5u);

  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(httpGet("127.0.0.1", server.port(), "/metrics"), "")
      << "stopped server no longer answers";
}

/// A client that connects, then sends its request one byte per 100 ms and
/// never finishes the header.
class DribblingClient {
 public:
  explicit DribblingClient(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<u16>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    thread_ = std::thread([this] {
      const std::string req = "GET /metrics HTTP/1.0\r\nX-Slow: ";
      for (std::size_t i = 0; !done_.load(); ++i) {
        const char c = i < req.size() ? req[i] : 'x';
        (void)::send(fd_, &c, 1, MSG_NOSIGNAL);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }
  ~DribblingClient() {
    done_.store(true);
    thread_.join();
    ::close(fd_);
  }
  DribblingClient(const DribblingClient&) = delete;
  DribblingClient& operator=(const DribblingClient&) = delete;
  bool connected() const { return connected_; }

 private:
  int fd_;
  bool connected_ = false;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

TEST(MetricsServer, ASlowClientStallsNeitherScrapesNorStop) {
  using Clock = std::chrono::steady_clock;
  MetricsRegistry reg;
  MetricsServer server(reg, 0);
  ASSERT_GT(server.port(), 0);

  {
    // The dribbler is accepted first; the scrape queues behind it and is
    // answered once the dribbler's request deadline has passed.
    DribblingClient slow(server.port());
    ASSERT_TRUE(slow.connected());
    const auto t0 = Clock::now();
    std::string status;
    const std::string body =
        httpGet("127.0.0.1", server.port(), "/healthz", &status, 3000);
    EXPECT_EQ(body, "ok\n") << status;
    EXPECT_LT(Clock::now() - t0, std::chrono::seconds(3));
  }

  // stop() with a dribbler mid-request returns within the deadline too.
  std::optional<DribblingClient> slow;
  slow.emplace(server.port());
  ASSERT_TRUE(slow->connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::future<void> stopped =
      std::async(std::launch::async, [&server] { server.stop(); });
  const bool inTime =
      stopped.wait_for(std::chrono::seconds(3)) == std::future_status::ready;
  // Without a deadline stop() returns only once the client goes away.
  slow.reset();
  stopped.wait();
  EXPECT_TRUE(inTime) << "stop() blocked behind a slow client";
}

}  // namespace
}  // namespace adres::obs
