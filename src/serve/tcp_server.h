#ifndef TCF_SERVE_TCP_SERVER_H_
#define TCF_SERVE_TCP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/line_protocol.h"
#include "serve/query_backend.h"
#include "serve/serve_stats.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tcf {

/// Configuration of a TcpServer.
struct TcpServerOptions {
  /// Address to bind — an IPv4 or IPv6 literal. An IPv6 literal (e.g.
  /// `::` or `::1`) gets a dual-stack socket (IPV6_V6ONLY off), so `::`
  /// accepts IPv4 peers too via v4-mapped addresses. The default keeps
  /// the server loopback-only; bind 0.0.0.0 or :: explicitly to accept
  /// remote traffic.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (read the choice
  /// back from port() after Start — tests and the smoke script do this).
  uint16_t port = 0;
  /// Request-execution pool size: how many *ready* requests are executed
  /// concurrently. Unrelated to the connection count — idle connections
  /// are parked in epoll and cost a file descriptor, not a thread.
  size_t num_threads = 8;
  /// listen(2) backlog.
  int backlog = 64;
  /// Open-connection cap; further accepts are closed immediately.
  /// 0 = unlimited (bounded only by the process fd limit).
  size_t max_connections = 0;
  /// Write-buffer high-water mark, per connection. A peer that sends
  /// requests but does not read its responses stops being *read* once
  /// this many response bytes are queued for it, and resumes when the
  /// buffer drains below half — so a non-consuming client bounds its
  /// own memory cost instead of growing the server's. (One in-flight
  /// response can still exceed the mark transiently; the cap gates new
  /// work, it does not truncate answers.)
  size_t max_write_buffer = size_t{4} << 20;  // 4 MiB
  /// When false, RELOAD answers ERR Unimplemented — for deployments
  /// where the index must only change via restart.
  bool allow_reload = true;
  /// Streaming-update sink for the UPDATE verb (core/tc_tree_update.h).
  /// Null (the default) answers UPDATE with ERR Unimplemented. The
  /// updater must outlive the server, own the authoritative network for
  /// the served index, and sink its snapshots into the same backend
  /// (QueryBackend::ApplyUpdatedSnapshot) — `tcf serve` wires this when
  /// it has the network to build from.
  IndexUpdater* updater = nullptr;
  /// Default per-request compute budget in milliseconds, applied to any
  /// request that carries no `DEADLINE <ms>` prefix of its own. The
  /// budget covers execution (walk, compose, shard merge); an expired
  /// query answers ERR DeadlineExceeded with its partial-work counters.
  /// 0 = unbounded (the pre-deadline behaviour).
  uint64_t default_deadline_ms = 0;
  /// Per-client token-bucket rate limit, in sustained requests per
  /// second per peer IP (a BATCH/UPDATE body costs its line count;
  /// PING/STATS/METRICS/QUIT are exempt so health checks keep working
  /// under pressure). Client records are keyed by peer address, so the
  /// budget survives reconnects. Over-budget requests answer ERR
  /// RateLimited with a retry-after hint. 0 = off.
  double rate_limit_qps = 0;
  /// Token-bucket capacity (burst allowance). <= 0 defaults to
  /// max(1, rate_limit_qps).
  double rate_limit_burst = 0;
  /// Load-shedding watermark, in request units queued or executing
  /// across all connections (docs/robustness.md). At the watermark,
  /// *large* cold query walks (>= kShedLargeQueryItems items) degrade
  /// to cache-only — a hit still serves, a cold walk answers ERR
  /// RateLimited immediately; at twice the watermark every cold walk is
  /// shed. Lowest-value work goes first, and the server keeps answering
  /// from cache instead of queueing unboundedly. 0 = off.
  size_t shed_watermark = 0;
};

/// Queries with at least this many items count as "large" for load
/// shedding: their walks touch the most subtrees, so they are the
/// first work shed at the watermark.
inline constexpr size_t kShedLargeQueryItems = 4;

/// \brief Line-protocol TCP front end over a QueryBackend (a
/// QueryService of any shard count).
///
/// `Start()` binds a POSIX listening socket and spawns one event-loop
/// thread. The loop owns every connection through a level-triggered
/// epoll set: sockets are non-blocking, inbound bytes accumulate in a
/// per-connection read buffer, and only *complete* requests (a framed
/// line, or a full `BATCH <n>` header plus its n query lines) are
/// dispatched onto the shared `ThreadPool` for execution. N idle or
/// slow-trickling connections therefore cost N file descriptors, not N
/// threads — the C10K shape. Responses are handed back to the loop
/// (eventfd wakeup) and written from its per-connection write buffer,
/// with EPOLLOUT armed only while a short write leaves bytes pending.
///
/// Per connection, requests are executed strictly in arrival order and
/// at most one execution task is in flight, so pipelined clients (many
/// requests sent before the first response is read) get responses in
/// request order. Queries go through `QueryBackend::Execute` — and
/// `BATCH` bodies through `QueryBackend::ExecuteBatch` — so remote
/// traffic shares the result cache, the snapshot/epoch machinery, and
/// the latency percentiles with in-process callers; `RELOAD <path>`
/// loads a persisted index and installs it via the epoch-safe
/// `SwapSnapshot`, rolling a rebuilt index in under live traffic.
///
/// Shutdown is graceful and idempotent: the loop stops accepting and
/// exits, in-flight executions drain, and every remaining connection is
/// closed before `Shutdown()` returns. Connection, byte, and batch
/// counters are recorded into the service's MetricsRegistry.
class TcpServer {
 public:
  /// `service` must outlive the server.
  explicit TcpServer(QueryBackend& service,
                     const TcpServerOptions& options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the event loop. IOError on bind/listen
  /// failure (port in use, bad address); InvalidArgument if already
  /// started.
  Status Start();

  /// Stops accepting, waits for in-flight request executions, and
  /// disconnects every client. Safe to call twice and from a destructor.
  void Shutdown();

  /// True between a successful Start() and Shutdown().
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (the kernel's pick when options.port was 0).
  /// Valid after a successful Start().
  uint16_t port() const { return port_; }

  const std::string& bind_address() const { return options_.bind_address; }

 private:
  /// One framed request unit, ready for execution: either a single
  /// request line (possibly a parse error, answered with ERR) or a
  /// complete BATCH / UPDATE with its collected body lines.
  struct Unit {
    StatusOr<Request> request = Status::Internal("unparsed");
    std::vector<std::string> batch_lines;  // kBatch / kUpdate bodies only
    uint64_t wire_bytes = 0;  // request bytes incl. newlines, for stats
  };

  /// Per-client accounting record, keyed by peer IP in `clients_` so it
  /// survives reconnects. Token-bucket state plus counters.
  struct ClientRecord {
    double tokens = 0;
    std::chrono::steady_clock::time_point last_refill{};
    std::chrono::steady_clock::time_point last_seen{};
    uint64_t admitted = 0;
    uint64_t limited = 0;
  };

  /// Per-connection state. Everything except the outbox (mutex-guarded,
  /// written by pool workers) is owned by the event-loop thread.
  struct Conn {
    int fd = -1;
    std::string peer_ip;      // rate-limit key; set at accept, immutable
    std::string in;           // unframed inbound bytes
    std::deque<Unit> queued;  // framed requests not yet dispatched

    // Incremental BATCH / UPDATE framing: header seen, body lines
    // outstanding (both verbs share the collector — at most one body is
    // ever in flight per connection).
    Request batch_header;
    uint64_t batch_header_bytes = 0;
    size_t batch_expect = 0;  // body lines still missing (0 = no batch)
    std::vector<std::string> batch_lines;
    size_t batch_bytes = 0;

    std::string out;          // bytes for the socket; [0, out_sent) sent,
                              // the buffer freed once all of it is
    size_t out_sent = 0;      // FlushWrites advances this, never erases
    uint32_t interest = 0;    // epoll mask currently registered
    bool paused_read = false; // EPOLLIN dropped: write buffer over the
                              // high-water mark (backpressure)
    bool busy = false;        // an execution task is in flight
    bool read_closed = false; // peer EOF / read error seen
    bool quitting = false;    // QUIT answered: flush, then close

    std::mutex mu;            // guards the two fields below
    std::string outbox;       // responses produced by the worker
    bool worker_quit = false; // the worker executed a QUIT

    /// Bytes queued for the socket and not yet sent: what backpressure
    /// and EPOLLOUT interest are based on.
    size_t unsent() const { return out.size() - out_sent; }
  };

  void EventLoop();
  void AcceptReady();
  void ReadReady(Conn& conn);
  /// Extracts complete lines from conn.in and frames them into units.
  void FrameRequests(Conn& conn);
  void FrameLine(Conn& conn, std::string line);
  /// Launches one execution task if the connection has framed units and
  /// none in flight.
  void DispatchIfReady(Conn& conn);
  /// Worker-side: executes `units` in order, delivers the concatenated
  /// responses through conn.outbox, and wakes the loop.
  void ExecuteUnits(Conn* conn, std::vector<Unit> units);
  /// Drains the completion queue: moves outboxes into write buffers,
  /// clears busy flags, re-dispatches, flushes.
  void ProcessCompletions();
  /// Sends unsent bytes until the socket would block (freeing the
  /// buffer once it drains), then applies the backpressure policy and
  /// re-arms epoll interest.
  void FlushWrites(Conn& conn);
  /// Reconciles the epoll interest mask with the connection's state:
  /// EPOLLOUT while bytes are pending, EPOLLIN unless backpressure has
  /// paused reading.
  void UpdateInterest(Conn& conn);
  /// Closes the socket, deregisters it, and destroys the connection.
  /// Must not be called while conn.busy (a worker still holds the
  /// pointer); busy connections are closed from ProcessCompletions.
  void CloseConn(Conn& conn);
  /// True once the connection has nothing left to do (no pending input,
  /// no in-flight execution, nothing to write) and no way to get more.
  bool Drained(const Conn& conn) const;

  /// Drops every still-queued unit of `conn` (QUIT, protocol
  /// violations), keeping the server-wide pending-unit count honest.
  void DropQueued(Conn& conn);

  /// The effective Deadline for a request: its own `DEADLINE <ms>`
  /// prefix when given, else the server default, else unbounded. The
  /// clock starts when execution starts (queue time is not billed).
  Deadline EffectiveDeadline(const Request& request) const;

  /// True when the load-shedding policy says this query's cold walk
  /// should not run right now (see TcpServerOptions::shed_watermark).
  bool ShedColdWalk(size_t num_items) const;

  /// Token-bucket admission for `peer_ip` at `cost` tokens. On denial
  /// returns false and sets `*retry_after_ms` to when one token's worth
  /// of budget is back.
  bool AdmitClient(const std::string& peer_ip, double cost,
                   double* retry_after_ms);

  /// Executes one parsed request; returns the full response (status line
  /// + payload, newline-terminated). Sets `*quit` on QUIT.
  std::string HandleRequest(const Request& request, bool* quit);
  /// Executes a BATCH body: n query lines through ExecuteBatch, n
  /// back-to-back responses in order. Every slot inherits the batch
  /// header's deadline.
  std::string HandleBatch(const Request& header,
                          const std::vector<std::string>& lines);
  /// Executes an UPDATE body: parses all n update lines, applies them as
  /// one atomic batch through options_.updater, answers with a single
  /// UPDATED summary (or one ERR — a bad line rejects the whole frame).
  std::string HandleUpdate(const std::vector<std::string>& lines);
  /// The kQuery / kExplain paths of HandleRequest: parse and serialize
  /// are timed here (they are transport stages — the service cannot see
  /// them), Execute fills in the middle three.
  std::string HandleQuery(const Request& request);
  std::string HandleExplain(const Request& request);

  QueryBackend& service_;
  TcpServerOptions options_;
  /// Transport-stage histograms (tcf_query_stage_{parse,serialize}_us in
  /// the service's registry); recorded only while the service traces.
  Histogram& parse_us_;
  Histogram& serialize_us_;
  /// Mirror of pending_units_ in the service registry
  /// (tcf_server_pending_units). A Gauge, not a callback: the registry
  /// outlives this server, so a callback capturing `this` would dangle.
  Gauge& pending_units_gauge_;
  /// Connection, byte, batch, reload, update and overload counters,
  /// recorded straight into the service registry.
  ServeCounters counters_;
  ThreadPool pool_;
  std::thread loop_thread_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: worker completions + shutdown
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  /// True while the listen fd is out of the epoll set because accept
  /// hit fd exhaustion; re-armed when a connection closes.
  bool accept_paused_ = false;

  /// Live connections, keyed by fd. Owned by the event-loop thread
  /// while it runs; Shutdown() sweeps leftovers after joining it.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;

  /// Request units framed but not yet executed, across all connections
  /// — the load-shedding pressure signal. Bumped on the loop thread,
  /// drained by workers.
  std::atomic<size_t> pending_units_{0};

  /// Per-client records, keyed by peer IP (decaying LRU, capped at
  /// kMaxClientRecords; least-recently-seen evicted first). Accessed by
  /// pool workers under clients_mu_.
  std::mutex clients_mu_;
  std::unordered_map<std::string, ClientRecord> clients_;

  std::mutex done_mu_;
  std::vector<int> done_fds_;  // connections with a filled outbox
};

}  // namespace tcf

#endif  // TCF_SERVE_TCP_SERVER_H_
