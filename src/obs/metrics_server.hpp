// MetricsServer: a deliberately tiny embedded scrape endpoint so a running
// PacketFarm (or any process holding a MetricsRegistry) can be observed
// mid-flight.  One blocking accept loop on its own thread, one request per
// connection (HTTP/1.0, Connection: close):
//
//   GET /metrics       -> Prometheus text exposition (format 0.0.4): every
//                         registered series, SLO state included
//   GET /buildinfo     -> adres.buildinfo.v1 (version, git, build flags)
//   GET /healthz       -> "ok" liveness probe (the process serves requests)
//   GET /readyz        -> readiness probe: 200 once the registered readiness
//                         check passes (farm workers warm, program cache
//                         populated), 503 with the blocking reason before
//   GET /              -> tiny HTML index
//
// Not a general web server: no keep-alive, no TLS, no request body — a
// scrape endpoint with the smallest possible surface.  Each connection must
// deliver its request header within kRequestDeadline of being accepted
// (else 408), so one slow client cannot hold the single serve thread — or
// stop() — for longer than that.  Binds 127.0.0.1 by default; port 0 picks
// an ephemeral port (read back via port()).  The registry must outlive the
// server, or be clear()ed first (clear() is the teardown barrier).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace adres::obs {

class MetricsServer {
 public:
  /// Time from accept to a complete request header; a connection still
  /// short of it then gets 408 and is closed.
  static constexpr std::chrono::milliseconds kRequestDeadline{1000};

  /// Binds and starts serving immediately; throws SimError on bind failure.
  explicit MetricsServer(const MetricsRegistry& reg, int port = 0,
                         const std::string& bindAddr = "127.0.0.1");
  ~MetricsServer();

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// The actually-bound TCP port (resolves port 0 requests).
  int port() const { return port_; }

  /// Stops accepting and joins the serve thread.  Idempotent.
  void stop();

  /// Scrapes served since start.
  u64 requests() const { return requests_.load(std::memory_order_relaxed); }

  /// Registers the server's own series on `reg` (which must be the registry
  /// this server scrapes): adres_metrics_scrapes_total and the
  /// adres_metrics_scrape_duration_us summary.  The server must outlive the
  /// registrations (clear() the registry before destroying the server).
  void registerSelfMetrics(MetricsRegistry& reg);

  /// Readiness probe for /readyz.  The check runs on the serve thread per
  /// request: return true when the process can take traffic; on false,
  /// optionally describe what is still warming via `reason`.  Liveness
  /// (/healthz) stays unconditional.  Without a check, /readyz mirrors
  /// /healthz.  The callable must stay valid until stop() (or a
  /// setReadiness({}) reset).
  using ReadinessFn = std::function<bool(std::string* reason)>;
  void setReadiness(ReadinessFn fn);

 private:
  void serveLoop();
  void handleConnection(int fd, std::chrono::steady_clock::time_point deadline);

  const MetricsRegistry& reg_;
  mutable std::mutex hookMu_;  ///< guards readiness_ vs the serve thread
  ReadinessFn readiness_;
  int listenFd_ = -1;
  int port_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<u64> requests_{0};
  LogLinearHistogram scrapeDurationNs_;
  std::thread thread_;
};

/// Minimal blocking HTTP/1.0 GET against a numeric IPv4 host ("localhost"
/// is accepted as 127.0.0.1).  Returns the response body ("" on connect /
/// protocol error); `statusOut`, when set, receives the status line.  Used
/// by examples/farm_dashboard and the tests — not a general client.
std::string httpGet(const std::string& host, int port, const std::string& path,
                    std::string* statusOut = nullptr, int timeoutMs = 5000);

}  // namespace adres::obs
