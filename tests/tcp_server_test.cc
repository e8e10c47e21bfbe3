#include "serve/tcp_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/tc_tree.h"
#include "core/tc_tree_io.h"
#include "core/tc_tree_query.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/line_protocol.h"
#include "serve/shard_router.h"
#include "test_util.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace tcf {
namespace {

using testing::MakeFigureOneNetwork;
using testing::MakeRandomNetwork;

/// Checks a wire answer against an in-process QueryTcTree answer:
/// identical trusses (pattern names, vertex list, edge list) in
/// identical order.
void ExpectWireMatches(const ItemDictionary& dictionary,
                       const TcTreeQueryResult& expected,
                       const std::vector<WireTruss>& actual,
                       const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(actual.size(), expected.trusses.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    const PatternTruss& e = expected.trusses[i];
    ASSERT_EQ(actual[i].pattern.size(), e.pattern.size());
    for (size_t j = 0; j < e.pattern.size(); ++j) {
      EXPECT_EQ(actual[i].pattern[j], dictionary.Name(e.pattern.items()[j]));
    }
    EXPECT_EQ(actual[i].vertices, e.vertices);
    EXPECT_EQ(actual[i].edges, e.edges);
  }
}

/// True if the wire answer is structurally identical to `expected`
/// (non-asserting form, for the either-snapshot check during RELOAD).
bool WireEquals(const ItemDictionary& dictionary,
                const TcTreeQueryResult& expected,
                const std::vector<WireTruss>& actual) {
  if (actual.size() != expected.trusses.size()) return false;
  for (size_t i = 0; i < actual.size(); ++i) {
    const PatternTruss& e = expected.trusses[i];
    if (actual[i].pattern.size() != e.pattern.size()) return false;
    for (size_t j = 0; j < e.pattern.size(); ++j) {
      if (actual[i].pattern[j] != dictionary.Name(e.pattern.items()[j])) {
        return false;
      }
    }
    if (actual[i].vertices != e.vertices) return false;
    if (actual[i].edges != e.edges) return false;
  }
  return true;
}

std::unique_ptr<Client> MustConnect(const TcpServer& server) {
  auto client = Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status();
  return client.ok() ? std::move(*client) : nullptr;
}

// --- raw-socket helpers: drive the server below the Client abstraction
// (partial lines, mid-batch disconnects, hand-rolled pipelining).

int RawConnect(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool RawSend(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// Next '\n'-terminated line (newline stripped); empty string on EOF.
std::string RawReadLine(int fd) {
  std::string line;
  char c;
  while (true) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return line;
    if (c == '\n') return line;
    line += c;
  }
}

/// Polls the service report until `pred` holds or ~5s pass.
template <typename Pred>
bool WaitForReport(QueryService& service, Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred(service.Report())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Buffered line reader over a raw fd, for tests that pull back large
/// pipelined response streams (RawReadLine's byte-at-a-time recv is
/// fine for a handful of lines, quadratic-feeling for megabytes).
class RawReader {
 public:
  explicit RawReader(int fd) : fd_(fd) {}

  /// Next line (newline stripped); empty string on EOF.
  std::string ReadLine() {
    while (true) {
      const size_t newline = buf_.find('\n', pos_);
      if (newline != std::string::npos) {
        std::string line = buf_.substr(pos_, newline - pos_);
        pos_ = newline + 1;
        return line;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

/// The most a TCP socket's send buffer may autotune to (the third
/// field of tcp_wmem); 4 MiB, the usual default, where that is unknown.
size_t MaxTcpSendBuffer() {
  std::FILE* f = std::fopen("/proc/sys/net/ipv4/tcp_wmem", "r");
  unsigned long min = 0, def = 0, max = 0;
  const bool read =
      f != nullptr && std::fscanf(f, "%lu %lu %lu", &min, &def, &max) == 3;
  if (f != nullptr) std::fclose(f);
  return read ? max : size_t{4} << 20;
}

/// Ensures the process may hold at least `needed` file descriptors,
/// raising the soft limit toward the hard limit if necessary. False if
/// the hard limit is too low to comply.
bool EnsureFdLimit(rlim_t needed) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return false;
  if (rl.rlim_cur >= needed) return true;
  if (rl.rlim_max < needed && rl.rlim_max != RLIM_INFINITY) return false;
  rl.rlim_cur = needed;
  return ::setrlimit(RLIMIT_NOFILE, &rl) == 0;
}

TEST(TcpServerTest, PingQueryStatsQuit) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);  // kernel assigned an ephemeral port

  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());

  auto trusses = client->Query("0.1;i0");
  ASSERT_TRUE(trusses.ok()) << trusses.status();
  ExpectWireMatches(net.dictionary(), QueryTcTree(tree, Itemset{0}, 0.1),
                    *trusses, "0.1;i0");

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  bool saw_queries = false, saw_connections = false;
  for (const auto& [key, value] : *stats) {
    if (key == "queries") {
      saw_queries = true;
      EXPECT_EQ(value, "1");
    }
    if (key == "connections_accepted") {
      saw_connections = true;
      EXPECT_EQ(value, "1");
    }
  }
  EXPECT_TRUE(saw_queries);
  EXPECT_TRUE(saw_connections);

  EXPECT_TRUE(client->Quit().ok());
  server.Shutdown();
  EXPECT_FALSE(server.running());
}

TEST(TcpServerTest, ServerSideErrorsKeepConnectionUsable) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());

  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  // Each protocol-level error comes back as a carried ERR status with
  // the hardened parser's code and column context...
  auto bad_alpha = client->Query("nan;i0");
  EXPECT_TRUE(bad_alpha.status().IsInvalidArgument()) << bad_alpha.status();
  auto bad_item = client->Query("0.1;nosuchitem");
  EXPECT_TRUE(bad_item.status().IsNotFound()) << bad_item.status();
  EXPECT_NE(bad_item.status().message().find("col 5"), std::string::npos)
      << bad_item.status();
  auto overflow = client->Query("1e999;i0");
  EXPECT_TRUE(overflow.status().IsOutOfRange()) << overflow.status();
  auto bad_reload = client->Reload("/definitely/not/an/index.idx");
  EXPECT_TRUE(bad_reload.status().IsIOError()) << bad_reload.status();

  // ...and none of them poisons the connection.
  EXPECT_TRUE(client->Ping().ok());
  auto good = client->Query("0.1;i0");
  EXPECT_TRUE(good.ok()) << good.status();
  EXPECT_TRUE(client->Quit().ok());
}

TEST(TcpServerTest, ReloadDisabledAnswersUnimplemented) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServerOptions options;
  options.allow_reload = false;
  TcpServer server(service, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  auto reload = client->Reload("/tmp/whatever.idx");
  EXPECT_TRUE(reload.status().IsUnimplemented()) << reload.status();
  EXPECT_TRUE(client->Quit().ok());
}

TEST(TcpServerTest, ConcurrentClientsGetIdenticalAnswers) {
  DatabaseNetwork net = MakeRandomNetwork({.seed = 19});
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> queries = {
      "0;i0", "0.05;i0,i1", "0.1;i1,i2,i3", "0.02;*", "0.15;i4"};
  std::vector<TcTreeQueryResult> expected;
  for (const std::string& q : queries) {
    auto parsed = ParseServeQuery(net.dictionary(), q);
    ASSERT_TRUE(parsed.ok()) << q;
    expected.push_back(QueryTcTree(tree, parsed->items, parsed->alpha));
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        const size_t pick = static_cast<size_t>(t + round) % queries.size();
        auto trusses = (*client)->Query(queries[pick]);
        if (!trusses.ok() ||
            !WireEquals(net.dictionary(), expected[pick], *trusses)) {
          ++failures;
          return;
        }
      }
      if (!(*client)->Quit().ok()) ++failures;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const ServeReport report = service.Report();
  EXPECT_EQ(report.queries, static_cast<uint64_t>(kClients) * kRounds);
  EXPECT_EQ(report.connections_accepted, static_cast<uint64_t>(kClients));
  // All clients QUIT; the loop may still be a beat away from recording
  // the last close (BYE reaches the client before CloseConn runs).
  EXPECT_TRUE(WaitForReport(service, [](const ServeReport& r) {
    return r.connections_active == 0;
  }));
  EXPECT_GT(report.bytes_in, 0u);
  EXPECT_GT(report.bytes_out, 0u);
}

// The acceptance-criteria test: ≥2 concurrent connections keep querying
// while a RELOAD swaps the snapshot underneath them. Every response must
// match one of the two snapshots exactly (no dropped or corrupted
// replies), and once the RELOAD is acknowledged, fresh queries answer
// from the new tree.
TEST(TcpServerTest, ReloadSwapsSnapshotUnderInFlightQueries) {
  // Same item universe (i0..i4) and dictionary, different topology and
  // transactions — so the same query line has a different answer on
  // each snapshot.
  DatabaseNetwork net_a = MakeRandomNetwork({.seed = 101});
  DatabaseNetwork net_b = MakeRandomNetwork({.seed = 202});
  TcTree tree_a = TcTree::Build(net_a);
  TcTree tree_b = TcTree::Build(net_b);

  const std::string query_line = "0.0;*";
  auto parsed = ParseServeQuery(net_a.dictionary(), query_line);
  ASSERT_TRUE(parsed.ok());
  const TcTreeQueryResult expect_a =
      QueryTcTree(tree_a, parsed->items, parsed->alpha);
  const TcTreeQueryResult expect_b =
      QueryTcTree(tree_b, parsed->items, parsed->alpha);
  // The check below distinguishes snapshots by their answers.
  ASSERT_FALSE(WireEquals(net_a.dictionary(), expect_a, [&] {
    std::vector<WireTruss> b;
    for (const PatternTruss& t : expect_b.trusses) {
      auto decoded = DecodeTruss(EncodeTruss(net_a.dictionary(), t));
      b.push_back(*decoded);
    }
    return b;
  }()));

  const std::string index_path =
      ::testing::TempDir() + "/tcp_server_reload.idx";
  ASSERT_TRUE(SaveTcTreeToFile(tree_b, index_path).ok());

  QueryService service(tree_a, net_a.dictionary(), {});
  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      while (!stop.load(std::memory_order_acquire)) {
        auto trusses = (*client)->Query(query_line);
        if (!trusses.ok()) {
          ++failures;
          return;
        }
        const bool is_a = WireEquals(net_a.dictionary(), expect_a, *trusses);
        const bool is_b = WireEquals(net_a.dictionary(), expect_b, *trusses);
        if (!is_a && !is_b) {  // corrupted or mixed-snapshot response
          ++failures;
          return;
        }
        ++answered;
      }
      if (!(*client)->Quit().ok()) ++failures;
    });
  }

  // Let traffic flow, then roll the rebuilt index in over a separate
  // admin connection while the three query connections stay busy.
  while (answered.load() < 50 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto admin = MustConnect(server);
  ASSERT_NE(admin, nullptr);
  auto reloaded = admin->Reload(index_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(*reloaded, tree_b.num_nodes());

  // Queries *after* the RELOAD ack must answer from the new snapshot.
  auto post = admin->Query(query_line);
  ASSERT_TRUE(post.ok()) << post.status();
  ExpectWireMatches(net_a.dictionary(), expect_b, *post, "post-reload");

  // Keep traffic flowing a little longer on the new snapshot.
  const uint64_t at_reload = answered.load();
  while (answered.load() < at_reload + 50 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(admin->Quit().ok());

  EXPECT_EQ(service.cache_stats().invalidations, 1u);
  std::remove(index_path.c_str());
}

TEST(TcpServerTest, ShardedRollingReloadUnderMultiClientTraffic) {
  // The sharded twin of the RELOAD test above, with a stronger
  // mid-roll contract: the router swaps shard snapshots one at a time,
  // so while the roll is in progress a scattered answer may combine
  // old-snapshot shards with new-snapshot ones — but every *per-shard
  // slice* of every answer must be exactly that shard's old answer or
  // exactly its new answer (per-shard epoch safety; ownership by
  // minimum item makes the slices disjoint). A slice matching neither
  // would mean a mixed-epoch composition inside one shard. Zero
  // queries may drop or error throughout.
  DatabaseNetwork net_a = MakeRandomNetwork({.seed = 101});
  DatabaseNetwork net_b = MakeRandomNetwork({.seed = 202});
  TcTree tree_a = TcTree::Build(net_a);
  TcTree tree_b = TcTree::Build(net_b);

  const std::string query_line = "0.0;*";
  auto parsed = ParseServeQuery(net_a.dictionary(), query_line);
  ASSERT_TRUE(parsed.ok());
  const TcTreeQueryResult expect_a =
      QueryTcTree(tree_a, parsed->items, parsed->alpha);
  const TcTreeQueryResult expect_b =
      QueryTcTree(tree_b, parsed->items, parsed->alpha);

  constexpr size_t kShards = 3;
  ShardedQueryService service(tree_a, net_a.dictionary(), kShards, {});
  const ItemDictionary& dict = service.dictionary();

  // Per-shard slices of the old and new full answers: a shard's answer
  // to any query is the ownership-filtered subsequence (same order).
  auto slice = [&](const TcTreeQueryResult& full, size_t s) {
    TcTreeQueryResult out;
    for (const PatternTruss& t : full.trusses) {
      if (service.ShardOfItem(t.pattern.items()[0]) == s) {
        out.trusses.push_back(t);
      }
    }
    return out;
  };
  std::vector<TcTreeQueryResult> slice_a, slice_b;
  for (size_t s = 0; s < kShards; ++s) {
    slice_a.push_back(slice(expect_a, s));
    slice_b.push_back(slice(expect_b, s));
  }

  // Splits a wire answer by owner shard (min pattern item) and accepts
  // it iff every shard slice is purely old or purely new.
  auto valid_hybrid = [&](const std::vector<WireTruss>& wire) {
    std::vector<std::vector<WireTruss>> parts(kShards);
    for (const WireTruss& t : wire) {
      if (t.pattern.empty()) return false;
      auto id = dict.Find(t.pattern.front());
      if (!id.ok()) return false;
      parts[service.ShardOfItem(*id)].push_back(t);
    }
    for (size_t s = 0; s < kShards; ++s) {
      if (!WireEquals(dict, slice_a[s], parts[s]) &&
          !WireEquals(dict, slice_b[s], parts[s])) {
        return false;
      }
    }
    return true;
  };

  const std::string index_path =
      ::testing::TempDir() + "/tcp_server_shard_reload.idx";
  ASSERT_TRUE(SaveTcTreeToFile(tree_b, index_path).ok());

  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      while (!stop.load(std::memory_order_acquire)) {
        auto trusses = (*client)->Query(query_line);
        if (!trusses.ok() || !valid_hybrid(*trusses)) {
          ++failures;
          return;
        }
        ++answered;
      }
      if (!(*client)->Quit().ok()) ++failures;
    });
  }

  while (answered.load() < 50 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto admin = MustConnect(server);
  ASSERT_NE(admin, nullptr);
  auto reloaded = admin->Reload(index_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(*reloaded, tree_b.num_nodes());

  // After the RELOAD ack the roll is complete: answers must be purely
  // from the new snapshot, no hybrid tolerance.
  auto post = admin->Query(query_line);
  ASSERT_TRUE(post.ok()) << post.status();
  ExpectWireMatches(dict, expect_b, *post, "post-reload sharded");

  const uint64_t at_reload = answered.load();
  while (answered.load() < at_reload + 50 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(admin->Quit().ok());

  // Every shard's cache was invalidated exactly once by the roll
  // (cache_stats sums the per-shard caches), and the per-shard reload
  // gauge saw the last swap.
  EXPECT_EQ(service.cache_stats().invalidations, kShards);
  EXPECT_GT(service.Report().shard_reload_ms, 0.0);
  EXPECT_EQ(service.Report().shards, kShards);
  std::remove(index_path.c_str());
}

TEST(TcpServerTest, ShutdownDisconnectsIdleClientsAndStopsAccepting) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  auto server = std::make_unique<TcpServer>(service, TcpServerOptions{});
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  auto idle = MustConnect(*server);
  ASSERT_NE(idle, nullptr);
  ASSERT_TRUE(idle->Ping().ok());

  server->Shutdown();
  EXPECT_FALSE(server->running());
  // The idle connection was kicked: the next exchange fails cleanly
  // instead of hanging.
  EXPECT_FALSE(idle->Ping().ok());
  // Nobody is listening on the port anymore.
  EXPECT_FALSE(Client::Connect("127.0.0.1", port).ok());
  // Shutdown is idempotent, including via the destructor.
  server->Shutdown();
  server.reset();
}

// A client may send many requests before reading any response; the
// server must answer all of them, in order, on one connection.
TEST(TcpServerTest, PipelinedRequestsAnswerInOrder) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(RawSend(fd, "PING\n0.1;i0\nPING\nnot_a_verb\nQUIT\n"));

  EXPECT_EQ(RawReadLine(fd).rfind("TCF1 OK PONG 0", 0), 0u);
  const std::string trusses = RawReadLine(fd);
  ASSERT_EQ(trusses.rfind("TCF1 OK TRUSSES ", 0), 0u) << trusses;
  const size_t count = std::stoul(trusses.substr(16));
  for (size_t i = 0; i < count; ++i) {
    EXPECT_FALSE(RawReadLine(fd).empty());
  }
  EXPECT_EQ(RawReadLine(fd).rfind("TCF1 OK PONG 0", 0), 0u);
  EXPECT_EQ(RawReadLine(fd).rfind("TCF1 ERR InvalidArgument", 0), 0u);
  EXPECT_EQ(RawReadLine(fd).rfind("TCF1 OK BYE 0", 0), 0u);
  EXPECT_TRUE(RawReadLine(fd).empty());  // server closed after QUIT
  ::close(fd);
  server.Shutdown();
}

// The epoll point: a connection trickling a request one byte at a time
// must not pin an execution worker. With a single worker thread, a
// thread-per-connection server would deadlock here; the event loop
// keeps serving others and answers the slow line once it completes.
TEST(TcpServerTest, SlowLorisPartialLineDoesNotPinTheWorker) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServerOptions options;
  options.num_threads = 1;  // the loris would starve a blocking design
  TcpServer server(service, options);
  ASSERT_TRUE(server.Start().ok());

  const int loris = RawConnect(server.port());
  ASSERT_GE(loris, 0);
  ASSERT_TRUE(RawSend(loris, "0."));  // partial query line, no newline

  // While the loris dribbles, full service on other connections.
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(client->Ping().ok());
    auto trusses = client->Query("0.1;i0");
    EXPECT_TRUE(trusses.ok()) << trusses.status();
  }
  EXPECT_TRUE(client->Quit().ok());

  // More dribbling, then the newline: the request completes and is
  // answered like any other.
  ASSERT_TRUE(RawSend(loris, "1;i"));
  ASSERT_TRUE(RawSend(loris, "0\n"));
  EXPECT_EQ(RawReadLine(loris).rfind("TCF1 OK TRUSSES ", 0), 0u);
  ::close(loris);
  server.Shutdown();
}

// A peer that announces a BATCH and dies before sending the body must
// not wedge the server or leak its half-collected state.
TEST(TcpServerTest, ClientDyingMidBatchLeavesServerHealthy) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());

  const int dying = RawConnect(server.port());
  ASSERT_GE(dying, 0);
  // Header promises 5 lines; only 2 arrive, the second cut mid-byte.
  ASSERT_TRUE(RawSend(dying, "BATCH 5\n0.1;i0\n0.2;i"));
  ::close(dying);

  // The abandoned connection is reaped...
  EXPECT_TRUE(WaitForReport(service, [](const ServeReport& r) {
    return r.connections_active == 0;
  }));

  // ...and the server keeps serving, including fresh batches.
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
  auto items = client->Batch({"0.1;i0", "0.1;i1"});
  ASSERT_TRUE(items.ok()) << items.status();
  ASSERT_EQ(items->size(), 2u);
  EXPECT_TRUE((*items)[0].status.ok());
  EXPECT_TRUE((*items)[1].status.ok());
  EXPECT_TRUE(client->Quit().ok());
  server.Shutdown();
}

// Each BATCH slot is answered independently and in order: a bad line
// gets its ERR in its slot, and its neighbours are unaffected.
TEST(TcpServerTest, BatchSlotsAnswerIndependentlyInOrder) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());

  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  auto empty = client->Batch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  auto items = client->Batch(
      {"0.1;i0", "nan;i0", "0.1;nosuchitem", "PING", "0.1;i1"});
  ASSERT_TRUE(items.ok()) << items.status();
  ASSERT_EQ(items->size(), 5u);
  EXPECT_TRUE((*items)[0].status.ok()) << (*items)[0].status;
  ExpectWireMatches(net.dictionary(), QueryTcTree(tree, Itemset{0}, 0.1),
                    (*items)[0].trusses, "slot 0");
  EXPECT_TRUE((*items)[1].status.IsInvalidArgument()) << (*items)[1].status;
  EXPECT_TRUE((*items)[2].status.IsNotFound()) << (*items)[2].status;
  // Batch bodies are query lines only; a verb in a slot is an error for
  // that slot, not a command.
  EXPECT_TRUE((*items)[3].status.IsInvalidArgument()) << (*items)[3].status;
  EXPECT_TRUE((*items)[4].status.ok()) << (*items)[4].status;
  ExpectWireMatches(net.dictionary(), QueryTcTree(tree, Itemset{1}, 0.1),
                    (*items)[4].trusses, "slot 4");

  // The error slots poisoned nothing: the connection still works.
  EXPECT_TRUE(client->Ping().ok());

  const ServeReport report = service.Report();
  EXPECT_EQ(report.batches, 1u);
  EXPECT_EQ(report.batch_queries, 5u);
  EXPECT_EQ(report.batch_max_depth, 5u);
  EXPECT_TRUE(client->Quit().ok());
  server.Shutdown();
}

// The C10K shape: a thousand idle connections cost file descriptors,
// not threads — interactive traffic flows past them undisturbed.
TEST(TcpServerTest, ThousandIdleConnectionsSoak) {
  // Both ends of every loopback connection live in this process: 1000
  // idle pairs plus the server's own fds. Stock 1024-fd soft limits
  // can't hold that; raise it or skip rather than fail spuriously.
  if (!EnsureFdLimit(2200)) {
    GTEST_SKIP() << "RLIMIT_NOFILE hard limit too low for the 1000-"
                    "connection soak";
  }
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServerOptions options;
  options.num_threads = 2;
  TcpServer server(service, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kIdle = 1000;
  std::vector<int> idle;
  idle.reserve(kIdle);
  for (size_t i = 0; i < kIdle; ++i) {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0) << "connection " << i;
    idle.push_back(fd);
    // Half of them park with a partial line in the buffer, the nastier
    // kind of idle.
    if (i % 2 == 0) {
      ASSERT_TRUE(RawSend(fd, "0.0"));
    }
  }
  ASSERT_TRUE(WaitForReport(service, [](const ServeReport& r) {
    return r.connections_active >= kIdle;
  }));

  // Interleaved PING/STATS/queries while the herd sits parked.
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(client->Ping().ok());
    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status();
    auto trusses = client->Query("0.1;i0");
    ASSERT_TRUE(trusses.ok()) << trusses.status();
  }
  const ServeReport report = service.Report();
  EXPECT_GE(report.connections_peak, kIdle + 1);
  EXPECT_GE(report.connections_active, kIdle);

  for (int fd : idle) ::close(fd);
  EXPECT_TRUE(WaitForReport(service, [](const ServeReport& r) {
    return r.connections_active == 1;  // just the interactive client
  }));
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Quit().ok());
  server.Shutdown();
}

// A pipelining client that sends a flood of requests and only starts
// reading afterwards is backpressured (reads pause at the write-buffer
// high-water mark) instead of growing server memory without bound —
// and still receives every response, in order, once it drains.
TEST(TcpServerTest, NonReadingPipelinerIsBackpressuredNotDropped) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServerOptions options;
  // A deliberately tiny high-water mark so the pause/resume machinery
  // cycles many times within one test.
  options.max_write_buffer = 1024;
  TcpServer server(service, options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  constexpr size_t kQueries = 2000;
  std::string burst;
  for (size_t i = 0; i < kQueries; ++i) burst += "0.0;*\n";
  burst += "QUIT\n";
  ASSERT_TRUE(RawSend(fd, burst));  // send everything before reading

  RawReader reader(fd);
  for (size_t i = 0; i < kQueries; ++i) {
    const std::string header = reader.ReadLine();
    ASSERT_EQ(header.rfind("TCF1 OK TRUSSES ", 0), 0u)
        << "response " << i << ": " << header;
    const size_t payload = std::stoul(header.substr(16));
    for (size_t j = 0; j < payload; ++j) {
      ASSERT_FALSE(reader.ReadLine().empty());
    }
  }
  EXPECT_EQ(reader.ReadLine().rfind("TCF1 OK BYE 0", 0), 0u);
  EXPECT_TRUE(reader.ReadLine().empty());  // closed after QUIT
  ::close(fd);
  server.Shutdown();
}

// Replies far larger than the socket buffers, pipelined on one
// connection behind and ahead of small ones, leave through the
// write buffer's sent offset: every reply arrives whole, byte-exact and
// in order; reads pause while the unsent bytes sit at the high-water
// mark and resume once they drain. Under TCF_FAILPOINTS=1, 30% of the
// sends also fail with a simulated EAGAIN, forcing partial flushes.
TEST(TcpServerTest, MegabyteRepliesPipelineInOrderWithBackpressure) {
  DatabaseNetwork net = MakeRandomNetwork(
      {.num_vertices = 40, .edge_prob = 0.5, .num_items = 6, .seed = 303});
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServerOptions options;
  options.max_write_buffer = size_t{64} << 10;
  TcpServer server(service, options);
  ASSERT_TRUE(server.Start().ok());
  const bool chaos = FailpointsArmed();
  if (chaos) {
    ResetFailpoints();
    ASSERT_TRUE(ConfigureFailpoint("net.write.eagain", "prob:0.3").ok());
  }

  // Expected bytes come from a second service over the same tree,
  // rendered by the writer the server uses.
  QueryService oracle(tree, net.dictionary(), {});
  auto reply_for = [&](const std::string& line) {
    auto query = oracle.ParseQueryLine(line);
    EXPECT_TRUE(query.ok()) << line;
    std::string out;
    AppendTrussesResponse(net.dictionary(), oracle.Execute(*query)->trusses,
                          &out);
    return out;
  };
  const std::string small_line = "0.1;i0";
  const std::string small_reply = reply_for(small_line);
  // The big reply (at least 1 MiB) must outgrow what the kernel can
  // buffer for the socket, or the server never holds unsent bytes at
  // the high-water mark.
  const size_t big_bytes = 2 * MaxTcpSendBuffer() + (size_t{1} << 20);
  const std::string big_line = "0.0;*";
  const std::string big_slot = reply_for(big_line);
  const size_t slots =
      std::min(kMaxBatchLines, big_bytes / big_slot.size() + 1);
  std::string batch = StrFormat("BATCH %zu\n", slots);
  std::string batch_reply;
  for (size_t i = 0; i < slots; ++i) {
    batch += big_line + "\n";
    batch_reply += big_slot;
  }
  ASSERT_GE(batch_reply.size(), big_bytes);

  // A small receive window keeps the reply from hiding in kernel
  // buffers; the timeout turns a wedged server into a failure.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 16 << 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  timeval timeout{};
  timeout.tv_sec = 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Part 1: the big reply between two small ones. Nothing is read yet.
  ASSERT_TRUE(RawSend(fd, small_line + "\n" + batch + "PING\n"));
  // Batch bytes reaching this socket mean the loop has queued the big
  // reply and is inside the FlushWrites that pauses reads; it cannot
  // look at part 2 before that call returns.
  int queued = 0;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(::ioctl(fd, FIONREAD, &queued), 0);
    if (static_cast<size_t>(queued) > small_reply.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(static_cast<size_t>(queued), small_reply.size());
  EXPECT_EQ(service.Report().queries, 1 + slots);

  // Part 2 waits in the kernel while reads are paused: nothing of it is
  // framed, so no unit is pending and no query runs.
  ASSERT_TRUE(
      RawSend(fd, batch + small_line + "\n" + small_line + "\nPING\nQUIT\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Gauge& pending = service.metrics().GetGauge(
      "tcf_server_pending_units",
      "Request units queued or executing in the TCP server "
      "(the load-shedding pressure signal)");
  EXPECT_EQ(pending.Value(), 0.0);
  EXPECT_EQ(service.Report().queries, 1 + slots);

  // Draining resumes reads; part 2 is answered behind part 1.
  const std::string want = small_reply + batch_reply + "TCF1 OK PONG 0\n" +
                           batch_reply + small_reply + small_reply +
                           "TCF1 OK PONG 0\nTCF1 OK BYE 0\n";
  std::string got;
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF after BYE, or the timeout
    got.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  ASSERT_EQ(got.size(), want.size());
  const auto diff = std::mismatch(want.begin(), want.end(), got.begin());
  EXPECT_TRUE(diff.first == want.end())
      << "first differing byte at offset " << (diff.first - want.begin());
  EXPECT_EQ(service.Report().queries, 3 + 2 * slots);

  if (chaos) {
    EXPECT_GT(FailpointEvaluations("net.write.eagain"), 0u);
    ResetFailpoints();
  }
  server.Shutdown();
}

// RELOAD under *pipelined* traffic: whole batches keep flowing while
// the snapshot swaps; every slot of every batch must match one of the
// two snapshots exactly and nothing may be dropped.
TEST(TcpServerTest, ReloadUnderPipelinedBatchTraffic) {
  DatabaseNetwork net_a = MakeRandomNetwork({.seed = 303});
  DatabaseNetwork net_b = MakeRandomNetwork({.seed = 404});
  TcTree tree_a = TcTree::Build(net_a);
  TcTree tree_b = TcTree::Build(net_b);

  const std::string query_line = "0.0;*";
  auto parsed = ParseServeQuery(net_a.dictionary(), query_line);
  ASSERT_TRUE(parsed.ok());
  const TcTreeQueryResult expect_a =
      QueryTcTree(tree_a, parsed->items, parsed->alpha);
  const TcTreeQueryResult expect_b =
      QueryTcTree(tree_b, parsed->items, parsed->alpha);

  const std::string index_path =
      ::testing::TempDir() + "/tcp_server_batch_reload.idx";
  ASSERT_TRUE(SaveTcTreeToFile(tree_b, index_path).ok());

  QueryService service(tree_a, net_a.dictionary(), {});
  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 2;
  constexpr size_t kDepth = 8;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      const std::vector<std::string> batch(kDepth, query_line);
      while (!stop.load(std::memory_order_acquire)) {
        auto items = (*client)->Batch(batch);
        if (!items.ok() || items->size() != kDepth) {
          ++failures;
          return;
        }
        for (const Client::BatchItem& item : *items) {
          if (!item.status.ok() ||
              (!WireEquals(net_a.dictionary(), expect_a, item.trusses) &&
               !WireEquals(net_a.dictionary(), expect_b, item.trusses))) {
            ++failures;
            return;
          }
          ++answered;
        }
      }
      if (!(*client)->Quit().ok()) ++failures;
    });
  }

  while (answered.load() < 100 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto admin = MustConnect(server);
  ASSERT_NE(admin, nullptr);
  auto reloaded = admin->Reload(index_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();

  // Batches *after* the RELOAD ack answer only from the new snapshot.
  auto post = admin->Batch({query_line});
  ASSERT_TRUE(post.ok()) << post.status();
  ASSERT_EQ(post->size(), 1u);
  ASSERT_TRUE((*post)[0].status.ok());
  ExpectWireMatches(net_a.dictionary(), expect_b, (*post)[0].trusses,
                    "post-reload batch");

  const uint64_t at_reload = answered.load();
  while (answered.load() < at_reload + 100 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(admin->Quit().ok());
  server.Shutdown();
  std::remove(index_path.c_str());
}

TEST(TcpServerTest, MetricsScrapeOverTheWire) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());

  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Query("0.1;i0").ok());

  auto scrape = client->Metrics();
  ASSERT_TRUE(scrape.ok()) << scrape.status();
  // Valid Prometheus text exposition: typed families, a counter that
  // saw the query, the transport stage histograms, and the callback
  // instruments over ServeStats.
  EXPECT_NE(scrape->find("# TYPE tcf_queries_total counter"),
            std::string::npos);
  EXPECT_NE(scrape->find("tcf_queries_total 1\n"), std::string::npos)
      << *scrape;
  EXPECT_NE(scrape->find("tcf_query_stage_parse_us_count 1\n"),
            std::string::npos);
  EXPECT_NE(scrape->find("# TYPE tcf_connections_accepted_total counter"),
            std::string::npos);
  EXPECT_NE(scrape->find("tcf_query_total_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);

  // The counter must advance between scrapes — the run_checks smoke
  // asserts the same thing end to end.
  ASSERT_TRUE(client->Query("0.1;i0").ok());
  scrape = client->Metrics();
  ASSERT_TRUE(scrape.ok());
  EXPECT_NE(scrape->find("tcf_queries_total 2\n"), std::string::npos);
  EXPECT_NE(scrape->find("tcf_query_cache_hits_total 1\n"),
            std::string::npos)
      << *scrape;
  EXPECT_TRUE(client->Quit().ok());
}

TEST(TcpServerTest, ExplainOverTheWire) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());

  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  auto pairs = client->Explain("0.1;i0");
  ASSERT_TRUE(pairs.ok()) << pairs.status();
  auto find = [&](const std::string& key) -> std::string {
    for (const auto& [k, v] : *pairs) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "EXPLAIN reply lacks key " << key;
    return "0";
  };
  // Every stage key present, every span non-negative, and the spans
  // nest inside the handler's total.
  double stage_sum = 0;
  for (size_t i = 0; i < kNumQueryStages; ++i) {
    const std::string name(QueryStageName(static_cast<QueryStage>(i)));
    auto wall = ParseDouble(find("stage_" + name + "_us"));
    ASSERT_TRUE(wall.ok());
    EXPECT_GE(*wall, 0) << name;
    stage_sum += *wall;
    auto cpu = ParseDouble(find("stage_" + name + "_cpu_us"));
    ASSERT_TRUE(cpu.ok());
    EXPECT_GE(*cpu, 0) << name;
  }
  auto total = ParseDouble(find("total_us"));
  ASSERT_TRUE(total.ok());
  EXPECT_GT(*total, 0);
  EXPECT_GT(stage_sum, 0);
  // Stage spans are sub-intervals of the handler's total timer; a tiny
  // epsilon covers clock-granularity jitter on the two reads.
  EXPECT_LE(stage_sum, *total * 1.05 + 1.0);
  EXPECT_EQ(find("cache_hit"), "0");  // fresh service: first touch

  // EXPLAIN answers for real: its trusses count matches the query's,
  // and the probe it ran warmed the cache for the next one.
  auto trusses = client->Query("0.1;i0");
  ASSERT_TRUE(trusses.ok());
  auto reported = ParseUint64(find("trusses"));
  ASSERT_TRUE(reported.ok());
  EXPECT_EQ(*reported, trusses->size());

  pairs = client->Explain("0.1;i0");
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(find("cache_hit"), "1");
  EXPECT_EQ(find("visited_nodes"), "0");  // a hit never walks

  // A malformed query line comes back as the carried parse error and
  // leaves the connection healthy.
  auto bad = client->Explain("nan;i0");
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Quit().ok());
}

TEST(TcpServerTest, TracingOffStillServesMetricsAndExplain) {
  // tracing=false strips histograms/slow-ring sampling from the hot
  // path, but EXPLAIN passes its own trace explicitly and counters are
  // unconditional — both verbs must keep answering.
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryServiceOptions options;
  options.tracing = false;
  QueryService service(tree, net.dictionary(), options);
  TcpServer server(service, {});
  ASSERT_TRUE(server.Start().ok());

  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Query("0.1;i0").ok());

  auto pairs = client->Explain("0.1;i0");
  ASSERT_TRUE(pairs.ok()) << pairs.status();
  bool saw_probe_stage = false;
  for (const auto& [k, v] : *pairs) {
    if (k == "stage_cache_probe_us") saw_probe_stage = true;
  }
  EXPECT_TRUE(saw_probe_stage);

  auto scrape = client->Metrics();
  ASSERT_TRUE(scrape.ok());
  // Counters advance untraced (1 query + 1 explain = 2 executes)...
  EXPECT_NE(scrape->find("tcf_queries_total 2\n"), std::string::npos)
      << *scrape;
  // ...but the per-query histograms stay empty for untraced requests:
  // only the explicit EXPLAIN trace recorded one sample.
  EXPECT_NE(scrape->find("tcf_query_total_us_count 1\n"),
            std::string::npos)
      << *scrape;
  EXPECT_TRUE(client->Quit().ok());
}

TEST(TcpServerTest, StartReportsBindFailures) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});

  TcpServerOptions bad_addr;
  bad_addr.bind_address = "not-an-address";
  EXPECT_TRUE(TcpServer(service, bad_addr).Start().IsInvalidArgument());

  TcpServer first(service, {});
  ASSERT_TRUE(first.Start().ok());
  TcpServerOptions in_use;
  in_use.port = first.port();
  EXPECT_TRUE(TcpServer(service, in_use).Start().IsIOError());
  EXPECT_TRUE(first.Start().IsInvalidArgument());  // double start
}

// An IPv6 loopback listener is dual-stack: ::1 connects natively, and
// (IPV6_V6ONLY off) the Client's "localhost" resolution reaches it too.
TEST(TcpServerTest, Ipv6ListenerServesBothFamilies) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServerOptions options;
  options.bind_address = "::1";
  TcpServer server(service, options);
  const Status start = server.Start();
  if (!start.ok()) GTEST_SKIP() << "no IPv6 loopback here: " << start;

  auto v6 = Client::Connect("::1", server.port());
  ASSERT_TRUE(v6.ok()) << v6.status();
  EXPECT_TRUE((*v6)->Ping().ok());
  auto trusses = (*v6)->Query("0.1;i0");
  ASSERT_TRUE(trusses.ok()) << trusses.status();
  ExpectWireMatches(net.dictionary(), QueryTcTree(tree, Itemset{0}, 0.1),
                    *trusses, "0.1;i0 over v6");
  EXPECT_TRUE((*v6)->Quit().ok());

  auto named = Client::Connect("localhost", server.port());
  ASSERT_TRUE(named.ok()) << named.status();
  EXPECT_TRUE((*named)->Ping().ok());
  EXPECT_TRUE((*named)->Quit().ok());
  server.Shutdown();
}

// A loris dribbling its request byte by byte cannot dodge the rate
// limiter: admission happens when the framed request executes, and the
// budget is keyed by peer address across all its connections.
TEST(TcpServerTest, SlowLorisStillPaysTheRateLimit) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServerOptions options;
  options.rate_limit_qps = 0.25;
  options.rate_limit_burst = 1;
  TcpServer server(service, options);
  ASSERT_TRUE(server.Start().ok());

  // A normal query spends the single burst token...
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Query("0.1;i0").ok());

  // ...so the loris' dribbled request, once complete, is over budget
  // even though it arrived on a different connection.
  const int loris = RawConnect(server.port());
  ASSERT_GE(loris, 0);
  for (const char c : std::string("0.1;i0")) {
    ASSERT_TRUE(RawSend(loris, std::string_view(&c, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(RawSend(loris, "\n"));
  const std::string status_line = RawReadLine(loris);
  EXPECT_EQ(status_line.rfind("TCF1 ERR RateLimited ", 0), 0u)
      << status_line;
  EXPECT_GE(service.Report().rate_limited, 1u);

  // Exempt verbs still answer on the throttled connection.
  ASSERT_TRUE(RawSend(loris, "PING\n"));
  EXPECT_EQ(RawReadLine(loris), "TCF1 OK PONG 0");
  ::close(loris);
  EXPECT_TRUE(client->Quit().ok());
  server.Shutdown();
}

// A peer that pipelines deadline-bounded queries and vanishes before
// reading anything must leave no trace: connections reaped, pending-unit
// pressure back to zero (so later traffic is not spuriously shed).
TEST(TcpServerTest, AbruptCloseUnderDeadlinesDrainsPendingPressure) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServerOptions options;
  options.num_threads = 1;
  options.default_deadline_ms = 1;
  options.shed_watermark = 4;
  TcpServer server(service, options);
  ASSERT_TRUE(server.Start().ok());

  for (int round = 0; round < 3; ++round) {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    std::string wire;
    for (int i = 0; i < 40; ++i) wire += "0.1;i0,i1,i2,i3,i4\n";
    ASSERT_TRUE(RawSend(fd, wire));
    ::close(fd);  // never reads a byte
  }
  EXPECT_TRUE(WaitForReport(service, [](const ServeReport& r) {
    return r.connections_active == 0;
  }));

  // With the pressure gone, a fresh client with a generous per-request
  // deadline gets a full answer — nothing is shed, nothing leaked.
  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(RawSend(fd, "DEADLINE 60000 0.1;i0\n"));
  EXPECT_EQ(RawReadLine(fd).rfind("TCF1 OK TRUSSES ", 0), 0u);
  ::close(fd);
  server.Shutdown();
}

// Sustained overload soak: a tiny deadline, a tight rate limit, and a
// low shed watermark, hammered by pipelining clients that do read.
// Every response frames cleanly, the overload counters advance, and the
// server ends the run healthy (bounded state: connections reaped,
// pending units drained).
TEST(TcpServerTest, SustainedOverloadSoakStaysCleanAndBounded) {
  DatabaseNetwork net = MakeRandomNetwork({});
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});
  TcpServerOptions options;
  options.num_threads = 2;
  options.default_deadline_ms = 1;
  options.rate_limit_qps = 50;
  options.rate_limit_burst = 20;
  options.shed_watermark = 8;
  TcpServer server(service, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kRounds = 10;
  constexpr int kPipeline = 30;
  std::atomic<size_t> framed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        const int fd = RawConnect(server.port());
        if (fd < 0) continue;
        std::string wire;
        for (int i = 0; i < kPipeline; ++i) {
          wire += StrFormat("0.02;i%d,i%d,i%d,i%d\n", c % 5, (c + 1) % 5,
                            (c + 2) % 5, (c + 3) % 5);
        }
        if (!RawSend(fd, wire)) {
          ::close(fd);
          continue;
        }
        RawReader reader(fd);
        for (int i = 0; i < kPipeline; ++i) {
          const std::string status_line = reader.ReadLine();
          if (status_line.empty()) break;  // server-side close
          auto header = ParseResponseHeader(status_line);
          EXPECT_TRUE(header.ok()) << status_line;
          if (!header.ok()) break;
          bool truncated = false;
          for (size_t j = 0; j < header->payload_lines; ++j) {
            if (reader.ReadLine().empty()) {
              truncated = true;
              break;
            }
          }
          EXPECT_FALSE(truncated) << status_line;
          if (truncated) break;
          framed.fetch_add(1, std::memory_order_relaxed);
        }
        ::close(fd);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_GT(framed.load(), 0u);

  EXPECT_TRUE(WaitForReport(service, [](const ServeReport& r) {
    return r.connections_active == 0;
  }));
  const ServeReport report = service.Report();
  // The protections actually engaged during the soak.
  EXPECT_GT(report.rate_limited, 0u);
  // Bounded accounting: every connection came from one loopback peer,
  // so the client LRU holds exactly one record however hard the soak
  // churned reconnects, and the pending-work gauge drains back to zero
  // once the last connection is gone (no phantom backlog).
  EXPECT_EQ(report.clients_tracked, 1u);
  EXPECT_EQ(
      service.metrics()
          .GetGauge("tcf_server_pending_units", "pending request units")
          .Value(),
      0.0);
  // The server is alive and fully functional afterwards.
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(client->Quit().ok());
  server.Shutdown();
}

}  // namespace
}  // namespace tcf
