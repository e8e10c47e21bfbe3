// Randomized end-to-end consistency: for many seeds, run the whole
// pipeline — generate → (text and binary) serialize → sample → mine with
// all three miners → index → persist index → query — and check that
// every stage agrees with every other. This is the "no seam leaks"
// suite: each individual stage has its own oracle tests; this one checks
// the composition. The second suite below adds the update-interleaving
// mode: random UPDATE batches over a live TCP server, byte-identical to
// a from-scratch rebuild oracle after every batch, sharded and not.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/communities.h"
#include "core/community_search.h"
#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "core/tc_tree_update.h"
#include "core/tcfa.h"
#include "core/tcfi.h"
#include "core/tcfi_format.h"
#include "core/tcs.h"
#include "net/binary_io.h"
#include "net/network_io.h"
#include "net/sampler.h"
#include "serve/line_protocol.h"
#include "serve/query_service.h"
#include "serve/tcp_server.h"
#include "test_util.h"

namespace tcf {
namespace {

using testing::ExpectSameResults;
using testing::MakeRandomNetwork;

class E2EFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(E2EFuzzTest, PipelineStagesAgree) {
  const uint64_t seed = GetParam();
  DatabaseNetwork net = MakeRandomNetwork({.num_vertices = 15,
                                           .edge_prob = 0.4,
                                           .num_items = 5,
                                           .tx_per_vertex = 6,
                                           .seed = seed});

  // --- Serialization round trips preserve mining results. ---------------
  std::stringstream text, binary;
  ASSERT_TRUE(SaveNetwork(net, text).ok());
  ASSERT_TRUE(SaveNetworkBinary(net, binary).ok());
  auto from_text = LoadNetwork(text);
  auto from_binary = LoadNetworkBinary(binary);
  ASSERT_TRUE(from_text.ok());
  ASSERT_TRUE(from_binary.ok());

  const double alpha = 0.1 * static_cast<double>(seed % 4);
  MiningResult direct = RunTcfi(net, {.alpha = alpha});
  ExpectSameResults(direct, RunTcfi(*from_text, {.alpha = alpha}),
                    "text round trip");
  ExpectSameResults(direct, RunTcfi(*from_binary, {.alpha = alpha}),
                    "binary round trip");

  // --- All exact miners agree; the oracle confirms. ---------------------
  ExpectSameResults(direct, RunTcfa(net, {.alpha = alpha}), "tcfa");
  ExpectSameResults(direct, RunTcs(net, {.alpha = alpha, .epsilon = 0.0}),
                    "tcs eps=0");
  ExpectSameResults(direct, BruteForceMineAll(net, alpha), "oracle");

  // --- Index agrees with direct mining; persisted index agrees too. -----
  TcTree tree = TcTree::Build(net, {.num_threads = 1 + seed % 3});
  const std::string idx = ::testing::TempDir() + "/e2e_fuzz_" +
                          std::to_string(seed) + ".tcfi";
  ASSERT_TRUE(SaveTcTreeBinary(tree, idx).ok());
  auto loaded_tree = MapTcTree(idx);
  ASSERT_TRUE(loaded_tree.ok()) << loaded_tree.status();

  Itemset everything(net.ActiveItems());
  auto via_tree = QueryTcTree(tree, everything, alpha);
  auto via_loaded = QueryTcTree(*loaded_tree, everything, alpha);
  ASSERT_EQ(via_tree.retrieved_nodes, direct.trusses.size());
  ASSERT_EQ(via_loaded.retrieved_nodes, direct.trusses.size());

  MiningResult from_tree;
  from_tree.trusses = via_tree.trusses;
  // Reconstructed trusses have no per-edge cohesions; compare topology.
  for (auto& t : from_tree.trusses) t.edge_cohesions.clear();
  MiningResult direct_no_coh = direct;
  for (auto& t : direct_no_coh.trusses) t.edge_cohesions.clear();
  ExpectSameResults(std::move(direct_no_coh), std::move(from_tree),
                    "tree vs direct");

  // --- Sharded serving is byte-identical on the wire. --------------------
  // Render every query's answer exactly as the serve layer would (one
  // EncodeTruss line per truss) through an unsharded QueryService and a
  // 2-4-shard one over the same build, and require the serialized
  // response streams to match byte for byte.
  {
    QueryServiceOptions bare;
    bare.num_threads = 1;
    bare.cache_bytes = 0;
    bare.tracing = false;
    QueryService unsharded(tree, net.dictionary(), bare);
    QueryServiceOptions split = bare;
    split.num_shards = 2 + seed % 3;
    QueryService sharded(tree, net.dictionary(), split);
    std::vector<ServeQuery> queries;
    queries.push_back({everything, alpha});
    for (ItemId item : net.ActiveItems()) {
      queries.push_back({Itemset::Single(item), alpha});
      queries.push_back({everything.Minus(Itemset::Single(item)), alpha});
    }
    auto render = [&](QueryBackend& backend) {
      std::string out;
      for (const ServeQuery& q : queries) {
        const auto result = backend.Execute(q);
        for (const PatternTruss& t : result->trusses) {
          out += EncodeTruss(net.dictionary(), t);
          out += '\n';
        }
        out += StrFormat("end %zu\n", result->trusses.size());
      }
      return out;
    };
    EXPECT_EQ(render(unsharded), render(sharded))
        << "sharded wire responses diverge, seed=" << seed
        << " num_shards=" << split.num_shards;
  }

  // --- Community search composes with extraction. -----------------------
  auto communities = ExtractThemeCommunities(via_tree.trusses);
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    auto mine = SearchCommunitiesOfVertex(tree, v, everything, alpha);
    size_t expect = 0;
    for (const auto& c : communities) {
      if (std::binary_search(c.vertices.begin(), c.vertices.end(), v)) {
        ++expect;
      }
    }
    EXPECT_EQ(mine.size(), expect) << "v=" << v;
  }

  // --- Sampling keeps the exactness invariants. --------------------------
  if (net.num_edges() >= 6) {
    Rng rng(seed);
    auto sub = SampleByBfs(net, net.num_edges() / 2, rng);
    ASSERT_TRUE(sub.ok());
    ExpectSameResults(RunTcfa(*sub, {.alpha = alpha}),
                      RunTcfi(*sub, {.alpha = alpha}), "sampled");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, E2EFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------
// Update-interleaving mode: the same generated networks, but now served
// over a real TCP socket with an IndexUpdater attached. Random UPDATE
// batches are pushed over the wire between query rounds, and after
// every batch each query's response stream must match — byte for byte,
// header included — what a cache-less service over a from-scratch
// rebuild of the accumulated network would emit. Runs unsharded and
// sharded, with warm composing caches kept live through the rolling
// delta swaps.
// ---------------------------------------------------------------------

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

NetworkUpdate RandomUpdateBatch(Rng& rng, const DatabaseNetwork& net,
                                size_t ops) {
  NetworkUpdate u;
  const size_t v = net.num_vertices();
  const size_t items = net.num_items();
  for (size_t i = 0; i < ops; ++i) {
    if (rng.NextBool(0.3) && v >= 2) {
      VertexId a = static_cast<VertexId>(rng.NextUint64(v));
      VertexId b = static_cast<VertexId>(rng.NextUint64(v));
      if (a == b) b = (b + 1) % v;
      u.edges.push_back(MakeEdge(a, b));
    } else {
      NetworkUpdate::TxInsert tx;
      tx.vertex = static_cast<VertexId>(rng.NextUint64(v));
      const size_t len = 1 + rng.NextUint64(3);
      std::vector<ItemId> ids;
      for (size_t k = 0; k < len; ++k) {
        ids.push_back(static_cast<ItemId>(rng.NextUint64(items)));
      }
      tx.items = Itemset(std::move(ids));
      u.transactions.push_back(std::move(tx));
    }
  }
  return u;
}

class E2EUpdateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(E2EUpdateFuzzTest, WireUpdateInterleavingMatchesRebuildOracle) {
  const uint64_t seed = GetParam();
  auto fresh_net = [seed] {
    return MakeRandomNetwork({.num_vertices = 15,
                              .edge_prob = 0.4,
                              .num_items = 5,
                              .tx_per_vertex = 6,
                              .seed = seed});
  };
  const double alpha = 0.1 * static_cast<double>(seed % 4);
  const size_t shard_configs[] = {1, 2 + seed % 3};

  for (const size_t num_shards : shard_configs) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    DatabaseNetwork serve_net = fresh_net();
    DatabaseNetwork oracle_net = fresh_net();
    TcTree initial = TcTree::Build(serve_net);

    QueryServiceOptions warm;
    warm.num_threads = 1;
    warm.cache_bytes = size_t{4} << 20;
    warm.cache_composition = true;
    warm.cache_admit_derived = true;
    warm.cache_compose_min_walk_us = 0;  // compose unconditionally
    warm.num_shards = num_shards;
    warm.tracing = false;
    auto backend =
        std::make_unique<QueryService>(initial, serve_net.dictionary(), warm);
    IndexUpdater updater(
        std::move(serve_net), std::move(initial),
        [&](std::shared_ptr<const TcTreeSnapshot> snap,
            const std::vector<ItemId>& changed_roots,
            const std::vector<ItemId>& dirty_items) {
          return backend->ApplyUpdatedSnapshot(std::move(snap), changed_roots,
                                               dirty_items);
        });

    TcpServerOptions server_options;
    server_options.updater = &updater;
    TcpServer server(*backend, server_options);
    ASSERT_TRUE(server.Start().ok());
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);

    const ItemDictionary& dict = updater.network().dictionary();
    const std::vector<ItemId> items = updater.network().ActiveItems();
    ASSERT_FALSE(items.empty());

    // A fixed query-line set: everything, every single item, adjacent
    // pairs. Asked after every batch, it exercises exact hits, retagged
    // survivors, and covers composed from them.
    std::vector<std::string> query_lines;
    query_lines.push_back(StrFormat("%g;*", alpha));
    for (const ItemId item : items) {
      query_lines.push_back(
          StrFormat("%g;%s", alpha, dict.Name(item).c_str()));
    }
    for (size_t i = 0; i + 1 < items.size(); ++i) {
      query_lines.push_back(StrFormat("%g;%s,%s", alpha,
                                      dict.Name(items[i]).c_str(),
                                      dict.Name(items[i + 1]).c_str()));
    }

    // Byte-identity against the rebuild oracle: every response off the
    // live socket — header line included — equals what a cache-less
    // service over TcTree::Build(oracle_net) renders.
    auto check_round = [&](const std::string& context) {
      SCOPED_TRACE(context);
      QueryServiceOptions bare;
      bare.num_threads = 1;
      bare.cache_bytes = 0;
      bare.tracing = false;
      QueryService oracle(TcTree::Build(oracle_net), oracle_net.dictionary(),
                          bare);
      for (const std::string& line : query_lines) {
        ASSERT_TRUE(RawSend(fd, line + "\n"));
        auto query = oracle.ParseQueryLine(line);
        ASSERT_TRUE(query.ok()) << query.status();
        const auto want = oracle.Execute(*query);
        EXPECT_EQ(RawReadLine(fd),
                  EncodeOkHeader("TRUSSES", want->trusses.size()))
            << line;
        for (const PatternTruss& t : want->trusses) {
          EXPECT_EQ(RawReadLine(fd), EncodeTruss(dict, t)) << line;
        }
      }
    };

    check_round("pre-update");
    Rng rng(seed * 131 + num_shards);
    for (int round = 0; round < 3; ++round) {
      NetworkUpdate batch = RandomUpdateBatch(rng, updater.network(), 3);
      const std::vector<std::string> lines = EncodeUpdate(dict, batch);
      for (const NetworkUpdate::TxInsert& tx : batch.transactions) {
        ASSERT_TRUE(oracle_net.AddTransaction(tx.vertex, tx.items).ok());
      }
      for (const Edge& e : batch.edges) {
        ASSERT_TRUE(oracle_net.AddEdge(e.u, e.v).ok());
      }

      std::string wire = StrFormat("UPDATE %zu\n", lines.size());
      for (const std::string& l : lines) {
        wire += l;
        wire += '\n';
      }
      ASSERT_TRUE(RawSend(fd, wire));
      const std::string header = RawReadLine(fd);
      ASSERT_EQ(header.rfind("TCF1 OK UPDATED ", 0), 0u) << header;
      const size_t payload =
          std::stoul(header.substr(header.find_last_of(' ') + 1));
      bool saw_txs = false;
      for (size_t i = 0; i < payload; ++i) {
        if (RawReadLine(fd).rfind("update_txs ", 0) == 0) saw_txs = true;
      }
      EXPECT_TRUE(saw_txs);

      check_round("after round " + std::to_string(round));
    }

    ASSERT_TRUE(RawSend(fd, "QUIT\n"));
    EXPECT_EQ(RawReadLine(fd).rfind("TCF1 OK BYE", 0), 0u);
    ::close(fd);
    server.Shutdown();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, E2EUpdateFuzzTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace tcf
