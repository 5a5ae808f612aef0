#include "obs/metrics_server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "common/check.hpp"
#include "obs/buildinfo.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace adres::obs {
namespace {

void closeFd(int fd) {
  if (fd >= 0) ::close(fd);
}

bool sendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string httpResponse(const char* status, const char* contentType,
                         const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.0 " << status << "\r\nContent-Type: " << contentType
     << "\r\nContent-Length: " << body.size() << "\r\nConnection: close\r\n\r\n"
     << body;
  return os.str();
}

in_addr parseAddr(const std::string& host) {
  in_addr a{};
  const std::string h = host == "localhost" ? "127.0.0.1" : host;
  ADRES_CHECK(::inet_pton(AF_INET, h.c_str(), &a) == 1,
              "bad IPv4 address '" << host << '\'');
  return a;
}

}  // namespace

MetricsServer::MetricsServer(const MetricsRegistry& reg, int port,
                             const std::string& bindAddr)
    : reg_(reg) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  ADRES_CHECK(listenFd_ >= 0, "socket(): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<u16>(port));
  addr.sin_addr = parseAddr(bindAddr);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listenFd_, 16) != 0) {
    const int err = errno;
    closeFd(listenFd_);
    listenFd_ = -1;
    ADRES_CHECK(false, "metrics server bind(" << bindAddr << ':' << port
                                              << "): " << std::strerror(err));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { serveLoop(); });
}

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  closeFd(listenFd_);
  listenFd_ = -1;
}

void MetricsServer::serveLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or unrecoverable) — exit the loop
    }
    const auto t0 = std::chrono::steady_clock::now();
    handleConnection(fd, t0 + kRequestDeadline);
    closeFd(fd);
    scrapeDurationNs_.record(static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
}

void MetricsServer::setReadiness(ReadinessFn fn) {
  std::lock_guard<std::mutex> lk(hookMu_);
  readiness_ = std::move(fn);
}

void MetricsServer::registerSelfMetrics(MetricsRegistry& reg) {
  reg.addCounter("adres_metrics_scrapes_total",
                 "HTTP requests served by the metrics endpoint",
                 [this] { return static_cast<double>(requests()); });
  reg.addSummary("adres_metrics_scrape_duration_us",
                 "Per-request handling time in microseconds", 1e-3,
                 [this] { return scrapeDurationNs_.snapshot(); });
}

void MetricsServer::handleConnection(
    int fd, std::chrono::steady_clock::time_point deadline) {
  // One small request: read until the header terminator (or 4 KiB), each
  // wait bounded by what is left of the connection's deadline.
  std::string req;
  char buf[1024];
  while (req.size() < 4096 && req.find("\r\n\r\n") == std::string::npos) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    const int ready =
        left.count() > 0 ? ::poll(&pfd, 1, static_cast<int>(left.count())) : 0;
    if (ready == 0) {
      sendAll(fd, httpResponse("408 Request Timeout", "text/plain",
                               "request header not received in time\n"));
      return;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }
  std::istringstream line(req);
  std::string method, path;
  line >> method >> path;
  if (method != "GET") {
    sendAll(fd, httpResponse("405 Method Not Allowed", "text/plain",
                             "only GET is supported\n"));
    return;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (path == "/metrics") {
    std::ostringstream body;
    reg_.writePrometheus(body);
    sendAll(fd, httpResponse("200 OK", "text/plain; version=0.0.4",
                             body.str()));
  } else if (path == "/buildinfo") {
    std::ostringstream body;
    writeBuildInfoJson(body);
    sendAll(fd, httpResponse("200 OK", "application/json", body.str()));
  } else if (path == "/healthz") {
    sendAll(fd, httpResponse("200 OK", "text/plain", "ok\n"));
  } else if (path == "/readyz") {
    ReadinessFn check;
    {
      std::lock_guard<std::mutex> lk(hookMu_);
      check = readiness_;
    }
    std::string reason;
    if (!check || check(&reason)) {
      sendAll(fd, httpResponse("200 OK", "text/plain", "ready\n"));
    } else {
      if (reason.empty()) reason = "warming up";
      sendAll(fd, httpResponse("503 Service Unavailable", "text/plain",
                               "not ready: " + reason + "\n"));
    }
  } else if (path == "/" || path == "/index.html") {
    sendAll(fd, httpResponse(
                    "200 OK", "text/html",
                    "<html><body><h1>adres metrics</h1><ul>"
                    "<li><a href=\"/metrics\">/metrics</a> (Prometheus)</li>"
                    "<li><a href=\"/buildinfo\">/buildinfo</a></li>"
                    "<li><a href=\"/healthz\">/healthz</a></li>"
                    "<li><a href=\"/readyz\">/readyz</a></li>"
                    "</ul></body></html>\n"));
  } else {
    sendAll(fd, httpResponse("404 Not Found", "text/plain", "not found\n"));
  }
}

std::string httpGet(const std::string& host, int port, const std::string& path,
                    std::string* statusOut, int timeoutMs) {
  if (statusOut) statusOut->clear();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  timeval tv{};
  tv.tv_sec = timeoutMs / 1000;
  tv.tv_usec = (timeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<u16>(port));
  try {
    addr.sin_addr = parseAddr(host);
  } catch (const SimError&) {
    closeFd(fd);
    return "";
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    closeFd(fd);
    return "";
  }
  const std::string req =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  if (!sendAll(fd, req)) {
    closeFd(fd);
    return "";
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  closeFd(fd);
  const std::size_t eol = resp.find("\r\n");
  if (statusOut && eol != std::string::npos) *statusOut = resp.substr(0, eol);
  const std::size_t split = resp.find("\r\n\r\n");
  return split == std::string::npos ? "" : resp.substr(split + 4);
}

}  // namespace adres::obs

#else  // no POSIX sockets: keep the interface, fail loudly if used.

namespace adres::obs {

MetricsServer::MetricsServer(const MetricsRegistry& reg, int, const std::string&)
    : reg_(reg) {
  ADRES_CHECK(false, "MetricsServer requires POSIX sockets on this platform");
}
MetricsServer::~MetricsServer() = default;
void MetricsServer::stop() {}
void MetricsServer::registerSelfMetrics(MetricsRegistry&) {}
void MetricsServer::setReadiness(ReadinessFn) {}
void MetricsServer::serveLoop() {}
void MetricsServer::handleConnection(int,
                                     std::chrono::steady_clock::time_point) {}

std::string httpGet(const std::string&, int, const std::string&, std::string*,
                    int) {
  return "";
}

}  // namespace adres::obs

#endif
