#ifndef TCF_TESTS_TEST_UTIL_H_
#define TCF_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <source_location>
#include <string>
#include <utility>
#include <vector>

#include "core/mining_result.h"
#include "core/pattern_truss.h"
#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "graph/graph_builder.h"
#include "net/database_network.h"
#include "net/theme_network.h"
#include "tx/itemset.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace tcf {
namespace testing {

/// Builds a database network from explicit edges and per-vertex
/// transaction lists. `transactions[v]` is the list of transactions of
/// vertex v, each a list of item ids. Items are named "i<id>".
inline DatabaseNetwork MakeNetwork(
    size_t num_vertices, const std::vector<std::pair<VertexId, VertexId>>& edges,
    const std::vector<std::vector<std::vector<ItemId>>>& transactions) {
  GraphBuilder builder(num_vertices);
  for (const auto& [a, b] : edges) {
    EXPECT_TRUE(builder.AddEdge(a, b).ok());
  }
  std::vector<TransactionDb> dbs(num_vertices);
  ItemId max_item = 0;
  for (size_t v = 0; v < transactions.size(); ++v) {
    for (const auto& t : transactions[v]) {
      for (ItemId item : t) max_item = std::max(max_item, item);
      dbs[v].Add(Itemset(t));
    }
  }
  ItemDictionary dict;
  for (ItemId i = 0; i <= max_item; ++i) dict.GetOrAdd(StrFormat("i%u", i));
  return DatabaseNetwork(builder.Build(), std::move(dbs), std::move(dict));
}

/// Options for random test networks (small enough for the oracles).
struct RandomNetOptions {
  size_t num_vertices = 12;
  double edge_prob = 0.35;
  size_t num_items = 5;
  size_t tx_per_vertex = 6;
  size_t max_tx_len = 3;
  uint64_t seed = 1;
};

/// A random database network: G(n, p) graph, every vertex gets
/// `tx_per_vertex` transactions of 1..max_tx_len uniform items.
inline DatabaseNetwork MakeRandomNetwork(const RandomNetOptions& o) {
  Rng rng(o.seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId a = 0; a < o.num_vertices; ++a) {
    for (VertexId b = a + 1; b < o.num_vertices; ++b) {
      if (rng.NextBool(o.edge_prob)) edges.emplace_back(a, b);
    }
  }
  std::vector<std::vector<std::vector<ItemId>>> tx(o.num_vertices);
  for (size_t v = 0; v < o.num_vertices; ++v) {
    for (size_t t = 0; t < o.tx_per_vertex; ++t) {
      const size_t len = 1 + rng.NextUint64(o.max_tx_len);
      std::vector<ItemId> items;
      for (size_t i = 0; i < len; ++i) {
        items.push_back(static_cast<ItemId>(rng.NextUint64(o.num_items)));
      }
      tx[v].push_back(std::move(items));
    }
  }
  return MakeNetwork(o.num_vertices, edges, tx);
}

/// Canonical edge-list shorthand.
inline std::vector<Edge> EdgeList(
    std::initializer_list<std::pair<VertexId, VertexId>> pairs) {
  std::vector<Edge> out;
  for (const auto& [a, b] : pairs) out.push_back(MakeEdge(a, b));
  std::sort(out.begin(), out.end());
  return out;
}

/// How strictly two trusses must agree.
enum class TrussMatch {
  /// Frequencies within 4 ulps; edge cohesions only when both carry
  /// them.
  kStructural,
  /// Bitwise frequencies and edge cohesions always: for answers that
  /// come off the same code path as the expected one (a cache, a shard
  /// merge).
  kIdentical,
};

/// Equality of two trusses: same pattern, edges, vertices and
/// frequencies, as strict as `match` says.
inline void ExpectSameTruss(const PatternTruss& a, const PatternTruss& b,
                            const std::string& context = "",
                            TrussMatch match = TrussMatch::kStructural) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.pattern, b.pattern);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.vertices, b.vertices);
  if (match == TrussMatch::kIdentical) {
    EXPECT_EQ(a.frequencies, b.frequencies);
    EXPECT_EQ(a.edge_cohesions, b.edge_cohesions);
    return;
  }
  ASSERT_EQ(a.frequencies.size(), b.frequencies.size());
  for (size_t i = 0; i < a.frequencies.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.frequencies[i], b.frequencies[i]) << "vertex index " << i;
  }
  if (!a.edge_cohesions.empty() && !b.edge_cohesions.empty()) {
    EXPECT_EQ(a.edge_cohesions, b.edge_cohesions);
  }
}

/// Whether ExpectSameAnswer also compares the walk counters.
enum class WalkCounters { kIgnore, kCompare };

/// Equality of two query answers: the same trusses in the same order
/// (ExpectSameTruss each, as strict as `match`), and with `counters ==
/// kCompare` the same retrieved/visited/pruned counts. kIdentical also
/// compares retrieved_nodes. Failures point at the caller's line.
inline void ExpectSameAnswer(
    const TcTreeQueryResult& expected, const TcTreeQueryResult& actual,
    const std::string& context, WalkCounters counters = WalkCounters::kIgnore,
    TrussMatch match = TrussMatch::kStructural,
    std::source_location where = std::source_location::current()) {
  ::testing::ScopedTrace trace(where.file_name(),
                               static_cast<int>(where.line()), context);
  if (counters == WalkCounters::kCompare || match == TrussMatch::kIdentical) {
    EXPECT_EQ(expected.retrieved_nodes, actual.retrieved_nodes);
  }
  if (counters == WalkCounters::kCompare) {
    EXPECT_EQ(expected.visited_nodes, actual.visited_nodes);
    EXPECT_EQ(expected.pruned_subtrees, actual.pruned_subtrees);
  }
  ASSERT_EQ(expected.trusses.size(), actual.trusses.size());
  for (size_t i = 0; i < expected.trusses.size(); ++i) {
    ExpectSameTruss(expected.trusses[i], actual.trusses[i],
                    "truss " + std::to_string(i), match);
  }
}

/// Field-for-field equality of two decompositions: pattern, vertices,
/// frequencies (bitwise), every level's alpha and removed edges, and
/// the sorted edge set.
inline void ExpectSameDecomposition(const TrussDecomposition& a,
                                    const TrussDecomposition& b) {
  EXPECT_EQ(a.pattern(), b.pattern());
  EXPECT_EQ(a.sorted_edges(), b.sorted_edges());
  EXPECT_EQ(a.vertices(), b.vertices());
  EXPECT_EQ(a.frequencies(), b.frequencies());
  ASSERT_EQ(a.levels().size(), b.levels().size());
  for (size_t i = 0; i < a.levels().size(); ++i) {
    EXPECT_EQ(a.levels()[i].alpha, b.levels()[i].alpha) << "level " << i;
    EXPECT_EQ(a.levels()[i].removed, b.levels()[i].removed) << "level " << i;
  }
}

/// Field-for-field equality of two trees, node id by node id: item,
/// parent, children and decomposition. Everything an index file stores
/// is compared, so "saves, maps and materializes to the same tree" and
/// "builds the same arena" are both this check.
inline void ExpectSameTree(const TcTree& expected, const TcTree& actual,
                           const std::string& context = "") {
  SCOPED_TRACE(context);
  ASSERT_EQ(expected.num_nodes(), actual.num_nodes());
  for (TcTree::NodeId id = 0; id <= expected.num_nodes(); ++id) {
    SCOPED_TRACE("node " + std::to_string(id));
    const TcTree::Node& a = expected.node(id);
    const TcTree::Node& b = actual.node(id);
    EXPECT_EQ(a.item, b.item);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.children, b.children);
    ExpectSameDecomposition(a.decomposition, b.decomposition);
  }
}

/// Equality of complete mining results (order-insensitive; canonicalizes
/// both sides).
inline void ExpectSameResults(MiningResult a, MiningResult b,
                              const std::string& context = "") {
  SCOPED_TRACE(context);
  a.Canonicalize();
  b.Canonicalize();
  ASSERT_EQ(a.trusses.size(), b.trusses.size());
  for (size_t i = 0; i < a.trusses.size(); ++i) {
    ExpectSameTruss(a.trusses[i], b.trusses[i],
                    "truss " + a.trusses[i].pattern.ToString());
  }
}

/// The Figure-1-style toy: two theme communities whose validity ranges
/// differ.
///  - K4 on {0,1,2,3}, every vertex frequency 0.1 for item 0
///    (each K4 edge lies in 2 triangles → eco = 0.2);
///  - triangle {6,7,8}, frequency 0.3 (eco = 0.3);
///  - bridge 3–6 (no triangle → eco = 0).
/// At α ∈ [0, 0.2) both communities stand; at [0.2, 0.3) only the
/// triangle; at [0.3, ∞) none. Frequencies are realized with 10
/// transactions per vertex (1 or 3 of them containing item 0).
inline DatabaseNetwork MakeFigureOneNetwork() {
  std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},  // K4
      {6, 7}, {6, 8}, {7, 8},                          // triangle
      {3, 6},                                          // bridge
  };
  std::vector<std::vector<std::vector<ItemId>>> tx(9);
  auto fill = [&](VertexId v, int positives) {
    for (int t = 0; t < 10; ++t) {
      if (t < positives) tx[v].push_back({0});
      else tx[v].push_back({1});
    }
  };
  for (VertexId v : {0, 1, 2, 3}) fill(v, 1);   // f = 0.1
  for (VertexId v : {6, 7, 8}) fill(v, 3);      // f = 0.3
  fill(4, 0);                                   // isolated, f = 0
  fill(5, 0);
  return MakeNetwork(9, edges, tx);
}

}  // namespace testing
}  // namespace tcf

#endif  // TCF_TESTS_TEST_UTIL_H_
