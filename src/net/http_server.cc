#include "net/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"

namespace toss::net {

namespace {

constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeId = 1;

struct NetMetrics {
  obs::Counter& accepted = obs::Metrics().GetCounter("net.conns.accepted");
  obs::Counter& rejected = obs::Metrics().GetCounter("net.conns.rejected");
  obs::Gauge& open = obs::Metrics().GetGauge("net.conns.open");
  obs::Counter& requests = obs::Metrics().GetCounter("net.http.requests");
  obs::Counter& parse_errors =
      obs::Metrics().GetCounter("net.http.parse_errors");
  obs::Counter& r2xx = obs::Metrics().GetCounter("net.http.responses_2xx");
  obs::Counter& r4xx = obs::Metrics().GetCounter("net.http.responses_4xx");
  obs::Counter& r5xx = obs::Metrics().GetCounter("net.http.responses_5xx");
  obs::Histogram& request_ns =
      obs::Metrics().GetHistogram("net.http.request_ns");
};

NetMetrics& Net() {
  static NetMetrics m;
  return m;
}

void CountResponseClass(int status) {
  if (status < 400) {
    Net().r2xx.Increment();
  } else if (status < 500) {
    Net().r4xx.Increment();
  } else {
    Net().r5xx.Increment();
  }
}

}  // namespace

/// Per-connection state; owned by the map, touched only by the loop thread.
struct HttpServer::Connection {
  uint64_t id = 0;
  int fd = -1;
  RequestParser parser;
  uint32_t events = 0;  ///< currently registered epoll interest

  /// A worker owns a request from this connection; reads are paused.
  bool busy = false;

  std::string outbuf;
  size_t outpos = 0;
  bool close_after_flush = false;

  /// The peer half-closed (read returned 0); buffered requests are still
  /// served, but an incomplete request can never finish.
  bool eof_seen = false;

  explicit Connection(ParserLimits limits) : parser(limits) {}
};

HttpServer::HttpServer(Handler handler, ServerOptions options)
    : handler_(std::move(handler)), options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (started_) return Status::OK();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::IOError("socket: " + std::string(std::strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    Stop();
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    Stop();
    return Status::IOError("bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " + err);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string err = std::strerror(errno);
    Stop();
    return Status::IOError("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Stop();
    return Status::IOError("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  stopping_.store(false, std::memory_order_relaxed);
  loop_ = std::thread([this] { LoopMain(); });
  const size_t n_workers = std::max<size_t>(1, options_.worker_threads);
  workers_.reserve(n_workers);
  for (size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  started_ = true;
  return Status::OK();
}

void HttpServer::Stop() {
  if (started_) {
    {
      // Under jobs_mu_: a worker between its wait predicate and its sleep
      // would otherwise miss the notify below and never wake.
      std::lock_guard<std::mutex> lock(jobs_mu_);
      stopping_.store(true, std::memory_order_relaxed);
    }
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    loop_.join();
    jobs_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
    started_ = false;
  }
  conns_.clear();  // Connection dtor is trivial; fds were closed by the loop
  if (epoll_fd_ >= 0) ::close(epoll_fd_), epoll_fd_ = -1;
  if (wake_fd_ >= 0) ::close(wake_fd_), wake_fd_ = -1;
  if (listen_fd_ >= 0) ::close(listen_fd_), listen_fd_ = -1;
}

void HttpServer::UpdateEvents(Connection* conn, uint32_t events) {
  if (conn->events == events) return;
  conn->events = events;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void HttpServer::CloseConnection(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
  Net().open.Set(static_cast<int64_t>(conns_.size()));
}

void HttpServer::AcceptReady() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient accept failure: both "later"

    if (conns_.size() >= options_.max_connections) {
      // Edge admission: a fast, explicit no. Best effort -- the 503 fits
      // in the socket buffer of a fresh connection or it doesn't.
      HttpResponse resp;
      resp.status = 503;
      resp.body = "{\"error\":\"server at connection limit\"}";
      resp.close = true;
      const std::string bytes = SerializeResponse(resp, false);
      [[maybe_unused]] ssize_t n =
          ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ::close(fd);
      Net().rejected.Increment();
      continue;
    }

    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(options_.limits);
    conn->id = id;
    conn->fd = fd;
    conn->events = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_.emplace(id, std::move(conn));
    Net().accepted.Increment();
    Net().open.Set(static_cast<int64_t>(conns_.size()));
  }
}

void HttpServer::PumpConnection(Connection* conn) {
  if (conn->busy) return;
  HttpRequest request;
  switch (conn->parser.Next(&request)) {
    case RequestParser::Result::kReady: {
      Net().requests.Increment();
      conn->busy = true;
      UpdateEvents(conn, 0);  // pause reads while the worker owns it
      std::lock_guard<std::mutex> lock(jobs_mu_);
      jobs_.push_back(Job{conn->id, std::move(request)});
      jobs_cv_.notify_one();
      return;
    }
    case RequestParser::Result::kError: {
      // The stream lost framing; answer once and hang up.
      Net().parse_errors.Increment();
      HttpResponse resp;
      resp.status = conn->parser.error_status();
      resp.body = "{\"error\":\"" + conn->parser.error_message() + "\"}";
      resp.close = true;
      CountResponseClass(resp.status);
      conn->busy = true;  // no further reads will be dispatched
      conn->outbuf = SerializeResponse(resp, false);
      conn->outpos = 0;
      conn->close_after_flush = true;
      UpdateEvents(conn, EPOLLOUT);
      return;
    }
    case RequestParser::Result::kNeedMore:
      if (conn->eof_seen) {
        // The peer will never send the rest of this request.
        CloseConnection(conn->id);
        return;
      }
      UpdateEvents(conn, EPOLLIN);
      return;
  }
}

void HttpServer::HandleReadable(Connection* conn) {
  // Drain the socket, but never buffer more than one oversized request's
  // worth beyond the parser limits: a client pipelining faster than we
  // serve gets parked on the kernel buffer, not in our heap.
  const size_t cap =
      options_.limits.max_head_bytes + options_.limits.max_body_bytes;
  char buf[16 * 1024];
  while (conn->parser.buffered_bytes() <= cap) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      // Hard error: the socket is unusable in both directions.
      CloseConnection(conn->id);
      return;
    }
    // EOF. A half-closing client (shutdown(SHUT_WR) after the request, the
    // HTTP/1.0 idiom) may have a complete request sitting in the buffer;
    // note the EOF and let the normal pump/flush path serve it. The pump
    // closes the connection once nothing parseable remains.
    conn->eof_seen = true;
    break;
  }
  PumpConnection(conn);
}

void HttpServer::HandleWritable(Connection* conn) {
  while (conn->outpos < conn->outbuf.size()) {
    // MSG_NOSIGNAL: a peer that already reset the connection must surface
    // as EPIPE here, not as a process-killing SIGPIPE.
    const ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->outpos,
                             conn->outbuf.size() - conn->outpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outpos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn->id);
    return;
  }
  // Flushed.
  conn->outbuf.clear();
  conn->outpos = 0;
  if (conn->close_after_flush) {
    CloseConnection(conn->id);
    return;
  }
  conn->busy = false;
  // Serve any pipelined request already buffered before re-arming reads.
  PumpConnection(conn);
}

void HttpServer::DrainOutcomes() {
  std::vector<Outcome> done;
  {
    std::lock_guard<std::mutex> lock(outcomes_mu_);
    done.swap(outcomes_);
  }
  for (Outcome& o : done) {
    auto it = conns_.find(o.conn_id);
    if (it == conns_.end()) continue;  // client vanished mid-handling
    Connection* conn = it->second.get();
    conn->outbuf = std::move(o.bytes);
    conn->outpos = 0;
    if (!o.keep_alive) conn->close_after_flush = true;
    UpdateEvents(conn, EPOLLOUT);
    HandleWritable(conn);  // often completes in one write
  }
}

void HttpServer::LoopMain() {
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        AcceptReady();
        continue;
      }
      if (id == kWakeId) {
        uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        DrainOutcomes();
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        if (!(events[i].events & (EPOLLIN | EPOLLOUT))) {
          CloseConnection(id);
          continue;
        }
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      // The connection may have been closed by the read path.
      if (conns_.find(id) == conns_.end()) continue;
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
    }
  }
  // Teardown on the loop thread, which owns all connection fds.
  for (auto& [id, conn] : conns_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
  }
  conns_.clear();
  Net().open.Set(0);
}

void HttpServer::WorkerMain() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) || !jobs_.empty();
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    Timer timer;
    HttpResponse resp = handler_(job.request);
    Net().request_ns.Record(static_cast<uint64_t>(timer.ElapsedNanos()));
    CountResponseClass(resp.status);
    const bool alive = job.request.keep_alive && !resp.close;
    Outcome outcome{job.conn_id, SerializeResponse(resp, job.request.keep_alive),
                    alive};
    {
      std::lock_guard<std::mutex> lock(outcomes_mu_);
      outcomes_.push_back(std::move(outcome));
    }
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

}  // namespace toss::net
