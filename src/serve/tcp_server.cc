#include "serve/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "core/tc_tree_io.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tcf {
namespace {

/// A peer that streams bytes without ever sending a newline is buffering
/// garbage, not speaking the protocol; cap what we will hold for it.
constexpr size_t kMaxRequestLine = size_t{1} << 20;  // 1 MiB

/// Cap on the bytes one BATCH body may accumulate before execution —
/// n query lines bounded individually by kMaxRequestLine could still
/// add up to gigabytes; real query lines are tens of bytes.
constexpr size_t kMaxBatchBytes = size_t{16} << 20;  // 16 MiB

/// Most bytes drained from one socket per readiness event. A peer that
/// streams nonstop still yields the loop to its neighbours; level-
/// triggered epoll re-reports the leftover immediately.
constexpr size_t kMaxReadPerEvent = size_t{256} << 10;

/// Client records older than this cap get evicted least-recently-seen
/// first — an abuser rotating source ports (or a NAT pool) cannot grow
/// the map unboundedly, and a client idle long enough to be evicted
/// just starts over with a full burst budget.
constexpr size_t kMaxClientRecords = 4096;

/// Writes 1 to an eventfd, riding out EINTR. Used for worker-completion
/// and shutdown wakeups; the counter semantics coalesce any number of
/// signals into one epoll event.
void SignalEventFd(int fd) {
  const uint64_t one = 1;
  while (::write(fd, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

/// The peer's IP as text — the rate-limit key. A v4-mapped IPv6 address
/// (what a v4 client looks like through a dual-stack socket) is
/// normalized to its dotted-quad form, so the same client hits the same
/// record whichever family carried the connection.
std::string PeerIpOf(const sockaddr_storage& ss) {
  char buf[INET6_ADDRSTRLEN] = {0};
  if (ss.ss_family == AF_INET) {
    const auto& a = reinterpret_cast<const sockaddr_in&>(ss);
    ::inet_ntop(AF_INET, &a.sin_addr, buf, sizeof(buf));
  } else if (ss.ss_family == AF_INET6) {
    const auto& a = reinterpret_cast<const sockaddr_in6&>(ss);
    if (IN6_IS_ADDR_V4MAPPED(&a.sin6_addr)) {
      in_addr v4;
      std::memcpy(&v4, &a.sin6_addr.s6_addr[12], sizeof(v4));
      ::inet_ntop(AF_INET, &v4, buf, sizeof(buf));
    } else {
      ::inet_ntop(AF_INET6, &a.sin6_addr, buf, sizeof(buf));
    }
  }
  return buf[0] != '\0' ? std::string(buf) : std::string("unknown");
}

/// Health and teardown verbs stay exempt from rate limiting: an
/// operator must be able to PING and scrape STATS/METRICS from an
/// overloaded server — that is when the numbers matter most.
bool RateLimitExempt(Request::Kind kind) {
  return kind == Request::Kind::kPing || kind == Request::Kind::kQuit ||
         kind == Request::Kind::kStats || kind == Request::Kind::kMetrics;
}

/// Moves `from` onto the end of `to` and leaves `from` empty. An empty
/// `to` takes the buffer by swap, so a reply is never copied on its way
/// to the socket while the hop ahead of it has drained.
void AppendOrTake(std::string& to, std::string& from) {
  if (to.empty()) {
    to.swap(from);
  } else {
    to += from;
  }
  from.clear();
}

}  // namespace

TcpServer::TcpServer(QueryBackend& service, const TcpServerOptions& options)
    : service_(service),
      options_(options),
      parse_us_(service.metrics().GetHistogram(
          "tcf_query_stage_parse_us",
          "Wall microseconds spent in the parse stage")),
      serialize_us_(service.metrics().GetHistogram(
          "tcf_query_stage_serialize_us",
          "Wall microseconds spent in the serialize stage")),
      pending_units_gauge_(service.metrics().GetGauge(
          "tcf_server_pending_units",
          "Request units queued or executing in the TCP server "
          "(the load-shedding pressure signal)")),
      pool_(options.num_threads == 0 ? 1 : options.num_threads) {}

TcpServer::~TcpServer() { Shutdown(); }

Status TcpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  // Family from the literal: an IPv6 literal (`::`, `::1`) gets a
  // dual-stack socket — IPV6_V6ONLY off, so `::` also accepts IPv4
  // peers through v4-mapped addresses; an IPv4 literal keeps the plain
  // AF_INET socket (a v6 socket cannot bind 127.0.0.1).
  in6_addr v6{};
  in_addr v4{};
  const bool is_v6 =
      ::inet_pton(AF_INET6, options_.bind_address.c_str(), &v6) == 1;
  const bool is_v4 =
      !is_v6 && ::inet_pton(AF_INET, options_.bind_address.c_str(), &v4) == 1;
  if (!is_v6 && !is_v4) {
    return Status::InvalidArgument(
        "bad bind address (need an IPv4 or IPv6 literal): " +
        options_.bind_address);
  }

  listen_fd_ = ::socket(is_v6 ? AF_INET6 : AF_INET,
                        SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  auto fail = [this](Status s) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
    if (wake_fd_ >= 0) ::close(wake_fd_);
    wake_fd_ = -1;
    return s;
  };

  sockaddr_storage addr{};
  socklen_t addr_len;
  if (is_v6) {
    const int off = 0;
    ::setsockopt(listen_fd_, IPPROTO_IPV6, IPV6_V6ONLY, &off, sizeof(off));
    auto& a6 = reinterpret_cast<sockaddr_in6&>(addr);
    a6.sin6_family = AF_INET6;
    a6.sin6_port = htons(options_.port);
    a6.sin6_addr = v6;
    addr_len = sizeof(sockaddr_in6);
  } else {
    auto& a4 = reinterpret_cast<sockaddr_in&>(addr);
    a4.sin_family = AF_INET;
    a4.sin_port = htons(options_.port);
    a4.sin_addr = v4;
    addr_len = sizeof(sockaddr_in);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), addr_len) < 0) {
    return fail(Status::IOError(
        StrFormat("bind %s:%u: %s", options_.bind_address.c_str(),
                  options_.port, std::strerror(errno))));
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    return fail(
        Status::IOError(StrFormat("listen: %s", std::strerror(errno))));
  }
  // Read back the kernel's port choice (options_.port may have been 0).
  sockaddr_storage bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return fail(
        Status::IOError(StrFormat("getsockname: %s", std::strerror(errno))));
  }
  port_ = ntohs(bound.ss_family == AF_INET6
                    ? reinterpret_cast<sockaddr_in6&>(bound).sin6_port
                    : reinterpret_cast<sockaddr_in&>(bound).sin_port);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    return fail(
        Status::IOError(StrFormat("epoll_create1: %s", std::strerror(errno))));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return fail(
        Status::IOError(StrFormat("eventfd: %s", std::strerror(errno))));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return fail(
        Status::IOError(StrFormat("epoll_ctl: %s", std::strerror(errno))));
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return fail(
        Status::IOError(StrFormat("epoll_ctl: %s", std::strerror(errno))));
  }

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void TcpServer::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  SignalEventFd(wake_fd_);
  if (loop_thread_.joinable()) loop_thread_.join();

  // In-flight executions still hold Conn pointers; let them finish
  // before tearing the connections down. Their completion signals go
  // unanswered — the responses are undeliverable anyway.
  pool_.Wait();
  for (auto& [fd, conn] : conns_) {
    // The registry gauge outlives this server: units dying with their
    // connection must leave it at zero, not a phantom backlog.
    DropQueued(*conn);
    ::close(fd);
    service_.stats().RecordConnectionClosed();
  }
  conns_.clear();
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_fds_.clear();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(epoll_fd_);
  epoll_fd_ = -1;
  ::close(wake_fd_);
  wake_fd_ = -1;
}

void TcpServer::EventLoop() {
  std::vector<epoll_event> events(512);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll set is gone; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      if (stopping_.load(std::memory_order_acquire)) return;
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        ProcessCompletions();
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      // Look the connection up by fd for every sub-step: any step may
      // close it, and a stale entry in this event batch must not touch
      // freed memory.
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        auto it = conns_.find(fd);
        if (it != conns_.end()) ReadReady(*it->second);
      }
      if (events[i].events & EPOLLOUT) {
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        Conn& conn = *it->second;
        FlushWrites(conn);
        if ((conn.quitting || conn.read_closed) && Drained(conn)) {
          CloseConn(conn);
        }
      }
    }
  }
}

void TcpServer::AcceptReady() {
  while (true) {
    sockaddr_storage peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                             &peer_len, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Resource exhaustion (fd limits, memory): take the listen fd
      // out of the epoll set instead of letting the level-triggered
      // event spin (or stall) the loop that every established
      // connection shares. CloseConn re-arms it when an fd frees up.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        accept_paused_ = true;
        return;
      }
      return;  // listening socket is gone
    }
    if (options_.max_connections > 0 &&
        conns_.size() >= options_.max_connections) {
      TCF_LOG(Warn) << "refusing connection: " << conns_.size()
                    << " open connections at the --max-connections cap";
      ::close(fd);  // over the cap: refuse by immediate close
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->peer_ip = PeerIpOf(peer);
    conn->interest = EPOLLIN;
    conns_.emplace(fd, std::move(conn));
    service_.stats().RecordConnectionOpened();
    TCF_LOG(Debug) << "accepted connection fd=" << fd << " ("
                   << conns_.size() << " open)";
  }
}

void TcpServer::ReadReady(Conn& conn) {
  // A stale readiness event may land after backpressure dropped
  // EPOLLIN in this same epoll batch; honor the pause.
  if (conn.paused_read) return;
  char buf[65536];
  size_t drained = 0;
  while (drained < kMaxReadPerEvent) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      drained += static_cast<size_t>(n);
      // Input after QUIT (or after a protocol violation) is discarded:
      // the connection is already on its way out.
      if (!conn.quitting) conn.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      conn.read_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.read_closed = true;  // RST or worse: no more requests
    break;
  }

  FrameRequests(conn);
  if (!conn.quitting && conn.in.size() > kMaxRequestLine) {
    // No newline within the cap: this peer is not speaking the protocol.
    TCF_LOG(Warn) << "fd=" << conn.fd
                  << ": request line exceeds 1 MiB without a newline; "
                     "dropping the connection";
    conn.out += EncodeErrHeader(
        Status::InvalidArgument("request line exceeds 1 MiB"));
    conn.out += '\n';
    conn.quitting = true;
    conn.in.clear();
    DropQueued(conn);
  }
  DispatchIfReady(conn);
  FlushWrites(conn);
  if ((conn.quitting || conn.read_closed) && !conn.busy && Drained(conn)) {
    CloseConn(conn);
  }
}

void TcpServer::FrameRequests(Conn& conn) {
  // Scan with an offset and erase the consumed prefix once: a burst of
  // thousands of short lines must not memmove the buffer per line on
  // the loop thread every connection shares.
  size_t pos = 0;
  size_t newline;
  while (!conn.quitting &&
         (newline = conn.in.find('\n', pos)) != std::string::npos) {
    FrameLine(conn, conn.in.substr(pos, newline - pos));
    pos = newline + 1;
  }
  // FrameLine may have cleared the buffer (protocol violation).
  conn.in.erase(0, std::min(pos, conn.in.size()));
}

void TcpServer::FrameLine(Conn& conn, std::string line) {
  if (conn.batch_expect > 0) {
    // Inside a BATCH body: collect raw query lines until the announced
    // count is reached, then frame the whole batch as one unit.
    conn.batch_bytes += line.size() + 1;
    conn.batch_lines.push_back(std::move(line));
    if (conn.batch_bytes > kMaxBatchBytes) {
      TCF_LOG(Warn) << "fd=" << conn.fd << ": BATCH body exceeds "
                    << (kMaxBatchBytes >> 20)
                    << " MiB; dropping the connection";
      conn.out += EncodeErrHeader(Status::InvalidArgument(
          StrFormat("BATCH body exceeds %zu MiB", kMaxBatchBytes >> 20)));
      conn.out += '\n';
      conn.quitting = true;
      conn.in.clear();
      DropQueued(conn);
      conn.batch_expect = 0;
      conn.batch_lines.clear();
      return;
    }
    if (--conn.batch_expect == 0) {
      Unit unit;
      unit.request = conn.batch_header;
      unit.batch_lines = std::move(conn.batch_lines);
      unit.wire_bytes = conn.batch_header_bytes + conn.batch_bytes;
      conn.batch_lines.clear();
      conn.batch_bytes = 0;
      conn.queued.push_back(std::move(unit));
      pending_units_.fetch_add(1, std::memory_order_relaxed);
      pending_units_gauge_.Add(1);
    }
    return;
  }

  auto parsed = ParseRequest(line);
  if (parsed.ok() && (parsed->kind == Request::Kind::kBatch ||
                      parsed->kind == Request::Kind::kUpdate)) {
    // The header alone is not executable; arm the body collector. A
    // malformed header (BATCH 0, BATCH x, over-limit n) falls through
    // as a unit and is answered with ERR — it consumes no body lines.
    // UPDATE bodies are framed identically (the announced count of raw
    // lines follows); only execution differs.
    conn.batch_header = *parsed;
    conn.batch_header_bytes = line.size() + 1;
    conn.batch_expect = parsed->kind == Request::Kind::kBatch
                            ? parsed->batch_size
                            : parsed->update_size;
    conn.batch_lines.clear();
    conn.batch_bytes = 0;
    return;
  }
  Unit unit;
  unit.request = std::move(parsed);
  unit.wire_bytes = line.size() + 1;
  conn.queued.push_back(std::move(unit));
  pending_units_.fetch_add(1, std::memory_order_relaxed);
  pending_units_gauge_.Add(1);
}

void TcpServer::DropQueued(Conn& conn) {
  if (conn.queued.empty()) return;
  pending_units_.fetch_sub(conn.queued.size(), std::memory_order_relaxed);
  pending_units_gauge_.Add(-static_cast<double>(conn.queued.size()));
  conn.queued.clear();
}

Deadline TcpServer::EffectiveDeadline(const Request& request) const {
  const uint64_t ms = request.deadline_ms != 0 ? request.deadline_ms
                                               : options_.default_deadline_ms;
  return Deadline::AfterMillis(ms);
}

bool TcpServer::ShedColdWalk(size_t num_items) const {
  if (options_.shed_watermark == 0) return false;
  const size_t pending = pending_units_.load(std::memory_order_relaxed);
  if (pending >= 2 * options_.shed_watermark) return true;
  return pending >= options_.shed_watermark &&
         num_items >= kShedLargeQueryItems;
}

bool TcpServer::AdmitClient(const std::string& peer_ip, double cost,
                            double* retry_after_ms) {
  if (options_.rate_limit_qps <= 0) return true;
  const double qps = options_.rate_limit_qps;
  const double burst = options_.rate_limit_burst > 0
                           ? options_.rate_limit_burst
                           : std::max(1.0, qps);
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(clients_mu_);
  auto [it, inserted] = clients_.try_emplace(peer_ip);
  ClientRecord& rec = it->second;
  if (inserted) {
    rec.tokens = burst;
    rec.last_refill = now;
    if (clients_.size() > kMaxClientRecords) {
      // Decay: drop the least-recently-seen record. The scan is linear
      // but only ever runs once per insertion past the cap.
      auto oldest = clients_.end();
      for (auto c = clients_.begin(); c != clients_.end(); ++c) {
        if (c == it) continue;  // never evict the record being admitted
        if (oldest == clients_.end() ||
            c->second.last_seen < oldest->second.last_seen) {
          oldest = c;
        }
      }
      if (oldest != clients_.end()) clients_.erase(oldest);
    }
    service_.stats().SetClientsTracked(clients_.size());
  }
  const double elapsed =
      std::chrono::duration<double>(now - rec.last_refill).count();
  rec.tokens = std::min(burst, rec.tokens + elapsed * qps);
  rec.last_refill = now;
  rec.last_seen = now;
  if (rec.tokens >= cost) {
    rec.tokens -= cost;
    ++rec.admitted;
    return true;
  }
  ++rec.limited;
  *retry_after_ms = (cost - rec.tokens) / qps * 1000.0;
  return false;
}

void TcpServer::DispatchIfReady(Conn& conn) {
  if (conn.busy || conn.queued.empty() ||
      stopping_.load(std::memory_order_acquire)) {
    return;
  }
  // Backpressure: while the peer is not consuming responses, don't
  // compute more for it. Queued units wait; FlushWrites re-dispatches
  // once the buffer drains. (0 = unlimited.)
  if (options_.max_write_buffer > 0 &&
      conn.unsent() >= options_.max_write_buffer) {
    return;
  }
  // Take the next run of framed requests: one task executes them in
  // order, and at most one task per connection is ever in flight (the
  // ordering guarantee). The run length is capped so a pipelined flood
  // framed in one gulp cannot materialize its entire output in a
  // single run and sail past the write-buffer gate above — the
  // remainder waits for the next completion, which re-checks the gate.
  constexpr size_t kMaxUnitsPerRun = 64;
  auto units = std::make_shared<std::vector<Unit>>();
  units->reserve(std::min(conn.queued.size(), kMaxUnitsPerRun));
  while (!conn.queued.empty() && units->size() < kMaxUnitsPerRun) {
    units->push_back(std::move(conn.queued.front()));
    conn.queued.pop_front();
  }
  conn.busy = true;
  Conn* c = &conn;
  pool_.Submit([this, c, units] { ExecuteUnits(c, std::move(*units)); });
}

void TcpServer::ExecuteUnits(Conn* conn, std::vector<Unit> units) {
  std::string responses;
  bool quit = false;
  for (const Unit& unit : units) {
    pending_units_.fetch_sub(1, std::memory_order_relaxed);
    pending_units_gauge_.Add(-1);
    if (quit) continue;  // pipelined requests after QUIT are not answered
    std::string response;
    double retry_after_ms = 0;
    if (!unit.request.ok()) {
      response = EncodeErrHeader(unit.request.status());
      response += '\n';
    } else if (!RateLimitExempt(unit.request->kind) &&
               !AdmitClient(
                   conn->peer_ip,
                   static_cast<double>(
                       std::max<size_t>(1, unit.batch_lines.size())),
                   &retry_after_ms)) {
      // Over the per-client budget (a BATCH/UPDATE body costs its line
      // count, so batching cannot launder a flood). The hint tells a
      // well-behaved client exactly how long to back off.
      service_.stats().RecordRateLimited();
      response = EncodeErrHeader(Status::RateLimited(
          StrFormat("client %s over %g req/s; retry in %.0f ms",
                    conn->peer_ip.c_str(), options_.rate_limit_qps,
                    retry_after_ms)));
      response += '\n';
    } else if (unit.request->kind == Request::Kind::kBatch) {
      response = HandleBatch(*unit.request, unit.batch_lines);
    } else if (unit.request->kind == Request::Kind::kUpdate) {
      response = HandleUpdate(unit.batch_lines);
    } else {
      response = HandleRequest(*unit.request, &quit);
    }
    service_.stats().RecordNetworkBytes(unit.wire_bytes, response.size());
    // One unit per run is the usual case: its reply is handed on, not
    // copied, here and at each hop to the socket.
    AppendOrTake(responses, response);
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    AppendOrTake(conn->outbox, responses);
    conn->worker_quit = conn->worker_quit || quit;
  }
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_fds_.push_back(conn->fd);
  }
  // After this signal the loop may clear `busy` and close the
  // connection, so `conn` must not be touched again.
  SignalEventFd(wake_fd_);
}

void TcpServer::ProcessCompletions() {
  std::vector<int> done;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done.swap(done_fds_);
  }
  for (const int fd : done) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;  // closed during shutdown sweep
    Conn& conn = *it->second;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      // Drop the sent prefix (FlushWrites only advances past it); a
      // drained buffer is empty and takes the outbox whole.
      conn.out.erase(0, conn.out_sent);
      conn.out_sent = 0;
      AppendOrTake(conn.out, conn.outbox);
      conn.quitting = conn.quitting || conn.worker_quit;
    }
    conn.busy = false;
    if (conn.quitting) {
      DropQueued(conn);  // QUIT discards the rest of the pipeline
    } else {
      DispatchIfReady(conn);
    }
    FlushWrites(conn);
    if ((conn.quitting || conn.read_closed) && Drained(conn)) {
      CloseConn(conn);
    }
  }
}

void TcpServer::FlushWrites(Conn& conn) {
  while (conn.unsent() > 0) {
    // Simulated EAGAIN (docs/robustness.md): bytes stay buffered, the
    // backpressure machinery below runs, EPOLLOUT re-arms, and the next
    // writable event retries — the stream is never corrupted. (An
    // `always` trigger would starve writes forever; chaos tests use
    // prob:/times:.)
    if (TCF_FAILPOINT("net.write.eagain")) break;
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_sent,
                             conn.unsent(), MSG_NOSIGNAL);
    if (n > 0) {
      // Advance past the sent bytes; nothing is moved or erased here.
      conn.out_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer vanished mid-response: everything pending is undeliverable.
    conn.out_sent = conn.out.size();
    conn.read_closed = true;
    break;
  }
  if (conn.unsent() == 0) {
    // Drained: free the buffer rather than keep a reply-sized
    // allocation on a connection that may now idle for hours.
    std::string().swap(conn.out);
    conn.out_sent = 0;
  }
  // Backpressure state machine, on the unsent bytes: pause reads above
  // the high-water mark and resume them below half of it. Dispatch must
  // be re-attempted on *every* drain below the mark — not just on
  // unpause — because the gate in DispatchIfReady may have deferred
  // units while the buffer was momentarily full even though reads
  // never paused.
  if (options_.max_write_buffer > 0 &&
      conn.unsent() >= options_.max_write_buffer) {
    conn.paused_read = true;
  } else {
    if (conn.paused_read && conn.unsent() < options_.max_write_buffer / 2) {
      conn.paused_read = false;
      FrameRequests(conn);  // input framed but parked while paused
    }
    DispatchIfReady(conn);
  }
  UpdateInterest(conn);
}

void TcpServer::UpdateInterest(Conn& conn) {
  const uint32_t want =
      (conn.paused_read ? 0u : static_cast<uint32_t>(EPOLLIN)) |
      (conn.unsent() == 0 ? 0u : static_cast<uint32_t>(EPOLLOUT));
  if (want == conn.interest) return;
  conn.interest = want;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

bool TcpServer::Drained(const Conn& conn) const {
  return !conn.busy && conn.queued.empty() && conn.unsent() == 0;
}

void TcpServer::CloseConn(Conn& conn) {
  const int fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(fd);  // destroys conn; the reference is dead now
  service_.stats().RecordConnectionClosed();
  TCF_LOG(Debug) << "closed connection fd=" << fd << " (" << conns_.size()
                 << " open)";
  if (accept_paused_) {
    // An fd just freed up; resume accepting.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
      accept_paused_ = false;
    }
  }
}

std::string TcpServer::HandleRequest(const Request& request, bool* quit) {
  std::string response;
  switch (request.kind) {
    case Request::Kind::kPing:
      response = EncodeOkHeader("PONG", 0);
      response += '\n';
      return response;

    case Request::Kind::kQuit:
      *quit = true;
      response = EncodeOkHeader("BYE", 0);
      response += '\n';
      return response;

    case Request::Kind::kStats: {
      const std::vector<std::string> lines = EncodeStats(service_.Report());
      response = EncodeOkHeader("STATS", lines.size());
      response += '\n';
      for (const std::string& l : lines) {
        response += l;
        response += '\n';
      }
      return response;
    }

    case Request::Kind::kReload: {
      if (!options_.allow_reload) {
        response = EncodeErrHeader(
            Status::Unimplemented("RELOAD is disabled on this server"));
        response += '\n';
        return response;
      }
      if (TCF_FAILPOINT("reload.load")) {
        response = EncodeErrHeader(Status::IOError(
            "injected fault (failpoint reload.load): index load failed"));
        response += '\n';
        return response;
      }
      WallTimer reload_timer;
      // The backend sniffs the format: a .tcfi file installs as a
      // zero-copy mapped snapshot (O(1) validation, no parse), TCFT
      // goes through the streaming loader. Either way the swap is the
      // epoch-checked path: in-flight queries finish on the old
      // snapshot and their results are dropped, not cached.
      auto reloaded = service_.ReloadFromFile(request.reload_path);
      if (!reloaded.ok()) {
        TCF_LOG(Warn) << "RELOAD " << request.reload_path
                      << " failed: " << reloaded.status().ToString();
        response = EncodeErrHeader(reloaded.status());
        response += '\n';
        return response;
      }
      const size_t nodes = *reloaded;
      const double reload_ms = reload_timer.Millis();
      service_.stats().RecordReload(reload_ms);
      TCF_LOG(Info) << "RELOAD " << request.reload_path << ": " << nodes
                    << " nodes swapped in over live traffic in " << reload_ms
                    << " ms";
      response = EncodeOkHeader("RELOADED", 1);
      response += '\n';
      response += StrFormat("nodes %zu\n", nodes);
      return response;
    }

    case Request::Kind::kMetrics: {
      // One Render, split into payload lines: the exposition is the
      // payload, so `curl`-less scrapers (tcf client --metrics, the
      // smoke script) reassemble the exact Prometheus text by joining.
      std::vector<std::string> lines =
          Split(service_.metrics().Render(), '\n');
      // Render's text ends with '\n'; Split keeps the empty tail.
      while (!lines.empty() && lines.back().empty()) lines.pop_back();
      response = EncodeOkHeader("METRICS", lines.size());
      response += '\n';
      for (const std::string& l : lines) {
        response += l;
        response += '\n';
      }
      return response;
    }

    case Request::Kind::kExplain:
      return HandleExplain(request);

    case Request::Kind::kBatch:
    case Request::Kind::kUpdate:
      break;  // framed by the transport; never reaches here

    case Request::Kind::kQuery:
      return HandleQuery(request);
  }
  response = EncodeErrHeader(Status::Internal("unhandled request kind"));
  response += '\n';
  return response;
}

std::string TcpServer::HandleQuery(const Request& request) {
  const bool traced = service_.tracing_enabled();
  std::string response;

  WallTimer parse_timer;
  auto query = service_.ParseQueryLine(request.query_line);
  if (traced) parse_us_.Record(parse_timer.Micros());
  if (!query.ok()) {
    response = EncodeErrHeader(query.status());
    response += '\n';
    return response;
  }

  query->deadline = EffectiveDeadline(request);
  // Graceful degradation under overload: a shed query runs with an
  // already-spent budget, so an exact cache hit still serves (the hit
  // path never consults the deadline) while a cold walk unwinds
  // immediately — "serve what is cheap, refuse what is not".
  const bool shed = ShedColdWalk(query->items.size());
  if (shed) query->deadline = Deadline::Expired();

  const QueryBackend::Result result = service_.Execute(*query);
  if (result->deadline_exceeded) {
    if (shed) {
      service_.stats().RecordShed();
      response = EncodeErrHeader(Status::RateLimited(StrFormat(
          "overloaded (%zu pending units >= watermark %zu): cold query "
          "walk shed; retry later or narrow the query",
          pending_units_.load(std::memory_order_relaxed),
          options_.shed_watermark)));
    } else {
      response = EncodeErrHeader(Status::DeadlineExceeded(StrFormat(
          "deadline of %llu ms exceeded after %llu visited nodes "
          "(%zu trusses of partial work discarded)",
          static_cast<unsigned long long>(
              request.deadline_ms != 0 ? request.deadline_ms
                                       : options_.default_deadline_ms),
          static_cast<unsigned long long>(result->visited_nodes),
          result->trusses.size())));
    }
    response += '\n';
    return response;
  }

  WallTimer serialize_timer;
  AppendTrussesResponse(service_.dictionary(), result->trusses, &response);
  if (traced) serialize_us_.Record(serialize_timer.Micros());
  return response;
}

std::string TcpServer::HandleExplain(const Request& request) {
  // EXPLAIN answers the query for real — same cache, same counters, same
  // snapshot as the query it replays — but returns the trace instead of
  // the trusses. The serialize stage is measured on the TRUSSES payload
  // the query *would* have sent, so the breakdown is honest about what
  // the un-explained query costs end to end.
  std::string response;
  QueryTrace trace;
  trace.sample_cpu = true;  // one deliberate request; pay for CPU columns
  WallTimer total_timer;

  {
    StageSpan parse(&trace, QueryStage::kParse);
    auto query = service_.ParseQueryLine(request.query_line);
    parse.Stop();
    if (!query.ok()) {
      response = EncodeErrHeader(query.status());
      response += '\n';
      return response;
    }

    // EXPLAIN honours the deadline like the query it replays, but is
    // never shed: it is a deliberate diagnostic, and its trace is how
    // an operator sees *why* things are slow.
    query->deadline = EffectiveDeadline(request);
    const QueryBackend::Result result = service_.Execute(*query, &trace);
    if (result->deadline_exceeded) {
      response = EncodeErrHeader(Status::DeadlineExceeded(StrFormat(
          "deadline of %llu ms exceeded after %llu visited nodes",
          static_cast<unsigned long long>(
              request.deadline_ms != 0 ? request.deadline_ms
                                       : options_.default_deadline_ms),
          static_cast<unsigned long long>(result->visited_nodes))));
      response += '\n';
      return response;
    }

    StageSpan serialize(&trace, QueryStage::kSerialize);
    std::string discarded;
    AppendTrussesResponse(service_.dictionary(), result->trusses, &discarded);
    serialize.Stop();
    if (service_.tracing_enabled()) {
      parse_us_.Record(
          trace.stage_wall_us[static_cast<size_t>(QueryStage::kParse)]);
      serialize_us_.Record(
          trace.stage_wall_us[static_cast<size_t>(QueryStage::kSerialize)]);
    }
  }
  // All five stages are in; the total now covers parse through
  // serialize, which is what the within-10% stage-sum invariant in
  // run_checks.sh is checked against.
  trace.total_us = total_timer.Micros();

  const std::vector<std::string> lines = EncodeExplain(trace);
  response = EncodeOkHeader("EXPLAIN", lines.size());
  response += '\n';
  for (const std::string& l : lines) {
    response += l;
    response += '\n';
  }
  return response;
}

std::string TcpServer::HandleUpdate(const std::vector<std::string>& lines) {
  std::string response;
  if (options_.updater == nullptr) {
    response = EncodeErrHeader(Status::Unimplemented(
        "UPDATE is disabled on this server (started without a streaming "
        "updater — serve from a network, not a prebuilt index)"));
    response += '\n';
    return response;
  }
  // Parse the whole body before touching the updater: a mutation batch
  // is atomic, so one malformed line rejects the frame with the index
  // untouched.
  NetworkUpdate update;
  for (size_t i = 0; i < lines.size(); ++i) {
    const Status s =
        ParseUpdateLine(service_.dictionary(), lines[i], &update);
    if (!s.ok()) {
      const std::string msg =
          StrFormat("update line %zu: %s", i + 1, s.message().c_str());
      response = EncodeErrHeader(s.code() == Status::Code::kNotFound
                                     ? Status::NotFound(msg)
                                     : Status::InvalidArgument(msg));
      response += '\n';
      return response;
    }
  }

  if (TCF_FAILPOINT("update.apply")) {
    response = EncodeErrHeader(Status::Internal(
        "injected fault (failpoint update.apply): update apply failed"));
    response += '\n';
    return response;
  }

  WallTimer update_timer;
  auto outcome = options_.updater->Apply(std::move(update));
  if (!outcome.ok()) {
    TCF_LOG(Warn) << "UPDATE rejected: " << outcome.status().ToString();
    response = EncodeErrHeader(outcome.status());
    response += '\n';
    return response;
  }
  service_.stats().RecordUpdate(outcome->transactions, outcome->edges,
                                outcome->dirty_items,
                                outcome->shards_swapped, outcome->apply_ms);
  TCF_LOG(Info) << "UPDATE: " << outcome->transactions << " txs, "
                << outcome->edges << " edges -> " << outcome->dirty_items
                << " dirty items, " << outcome->changed_roots
                << " changed roots, " << outcome->shards_swapped
                << " snapshots swapped in " << update_timer.Millis()
                << " ms";

  const std::vector<std::string> payload = EncodeUpdateOutcome(*outcome);
  response = EncodeOkHeader("UPDATED", payload.size());
  response += '\n';
  for (const std::string& l : payload) {
    response += l;
    response += '\n';
  }
  return response;
}

std::string TcpServer::HandleBatch(const Request& header,
                                   const std::vector<std::string>& lines) {
  // Parse every member first so the valid ones fan out over the service
  // pool together; each slot is answered independently, in order, and a
  // bad line never aborts its neighbours.
  std::vector<Status> slot_errors(lines.size(), Status::OK());
  std::vector<ptrdiff_t> slot_query(lines.size(), -1);
  std::vector<ServeQuery> queries;
  queries.reserve(lines.size());
  // Every slot inherits the batch header's deadline: the budget bounds
  // the caller-visible request, and the slots run concurrently against
  // the same wall clock.
  const Deadline deadline = EffectiveDeadline(header);
  for (size_t i = 0; i < lines.size(); ++i) {
    auto query = service_.ParseQueryLine(lines[i]);
    if (query.ok()) {
      query->deadline = deadline;
      slot_query[i] = static_cast<ptrdiff_t>(queries.size());
      queries.push_back(std::move(*query));
    } else {
      slot_errors[i] = query.status();
    }
  }
  const std::vector<QueryBackend::Result> results =
      service_.ExecuteBatch(queries);
  service_.stats().RecordBatch(lines.size());

  std::string response;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (slot_query[i] < 0) {
      response += EncodeErrHeader(slot_errors[i]);
      response += '\n';
      continue;
    }
    const QueryBackend::Result& result =
        results[static_cast<size_t>(slot_query[i])];
    if (result->deadline_exceeded) {
      // Slots that beat the deadline still answer normally; only the
      // ones caught by the expiry degrade, each with a clean ERR.
      response += EncodeErrHeader(Status::DeadlineExceeded(StrFormat(
          "batch deadline of %llu ms exceeded in slot %zu",
          static_cast<unsigned long long>(
              header.deadline_ms != 0 ? header.deadline_ms
                                      : options_.default_deadline_ms),
          i + 1)));
      response += '\n';
      continue;
    }
    AppendTrussesResponse(service_.dictionary(), result->trusses, &response);
  }
  return response;
}

}  // namespace tcf
