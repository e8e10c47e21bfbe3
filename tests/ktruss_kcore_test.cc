#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/graph_builder.h"
#include "graph/kcore.h"
#include "graph/ktruss.h"
#include "graph/random_graphs.h"
#include "util/rng.h"

namespace tcf {
namespace {

Graph Complete(size_t n) {
  GraphBuilder b(n);
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId v = a + 1; v < n; ++v) EXPECT_TRUE(b.AddEdge(a, v).ok());
  }
  return b.Build();
}

TEST(KTrussTest, K5IsA5Truss) {
  Graph g = Complete(5);
  // In K5 every edge lies in 3 triangles => 5-truss (k-2 = 3).
  EXPECT_EQ(KTrussEdges(g, 5).size(), 10u);
  EXPECT_TRUE(KTrussEdges(g, 6).empty());
}

TEST(KTrussTest, TriangleIs3Truss) {
  Graph g = Complete(3);
  EXPECT_EQ(KTrussEdges(g, 3).size(), 3u);
  EXPECT_TRUE(KTrussEdges(g, 4).empty());
}

TEST(KTrussTest, K2KeepsAllEdges) {
  GraphBuilder b;
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  Graph g = b.Build();
  EXPECT_EQ(KTrussEdges(g, 2).size(), 2u);
}

TEST(KTrussTest, TailIsPeeledFromTriangle) {
  GraphBuilder b;
  for (auto [x, y] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {0, 2}, {2, 3}}) {
    ASSERT_TRUE(b.AddEdge(x, y).ok());
  }
  auto edges = KTrussEdges(b.Build(), 3);
  ASSERT_EQ(edges.size(), 3u);
  for (const Edge& e : edges) EXPECT_NE(e.v, 3u);
}

TEST(KTrussTest, CascadingRemoval) {
  // Two triangles sharing one edge: 0-1-2, 0-1-3, plus pendant edges.
  // The 4-truss requires every edge in >=2 triangles: only edge {0,1}
  // touches two, but its wings each touch one, so the 4-truss is empty.
  GraphBuilder b;
  for (auto [x, y] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}}) {
    ASSERT_TRUE(b.AddEdge(x, y).ok());
  }
  EXPECT_TRUE(KTrussEdges(b.Build(), 4).empty());
}

class KTrussPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(KTrussPropertyTest, PeelingMatchesBruteForce) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  Graph g = ErdosRenyi(18, 70, rng);
  auto fast = KTrussEdges(g, k);
  auto slow = KTrussEdgesBruteForce(g, k);
  std::sort(fast.begin(), fast.end());
  std::sort(slow.begin(), slow.end());
  EXPECT_EQ(fast, slow);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, KTrussPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(3u, 4u, 5u)));

TEST(TrussDecompositionTest, TrussnessConsistentWithKTruss) {
  Rng rng(123);
  Graph g = ErdosRenyi(16, 60, rng);
  auto trussness = EdgeTrussness(g);
  for (uint32_t k = 3; k <= 6; ++k) {
    std::set<Edge> expect;
    for (const Edge& e : KTrussEdges(g, k)) expect.insert(e);
    std::set<Edge> got;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (trussness[e] >= k) got.insert(g.edge(e));
    }
    EXPECT_EQ(got, expect) << "k=" << k;
  }
}

TEST(TrussDecompositionTest, K5AllEdgesTrussness5) {
  auto t = EdgeTrussness(Complete(5));
  for (uint32_t v : t) EXPECT_EQ(v, 5u);
}

// ------------------------------------------------------------- k-core --

TEST(KCoreTest, CompleteGraphCore) {
  auto core = CoreDecomposition(Complete(5));
  for (uint32_t c : core) EXPECT_EQ(c, 4u);
}

TEST(KCoreTest, PathGraphCore) {
  GraphBuilder b;
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  ASSERT_TRUE(b.AddEdge(2, 3).ok());
  auto core = CoreDecomposition(b.Build());
  for (uint32_t c : core) EXPECT_EQ(c, 1u);
}

TEST(KCoreTest, TriangleWithTail) {
  GraphBuilder b;
  for (auto [x, y] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {0, 2}, {2, 3}}) {
    ASSERT_TRUE(b.AddEdge(x, y).ok());
  }
  auto core = CoreDecomposition(b.Build());
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 1u);
}

TEST(KCoreTest, KCoreVerticesFilter) {
  GraphBuilder b;
  for (auto [x, y] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {0, 2}, {2, 3}}) {
    ASSERT_TRUE(b.AddEdge(x, y).ok());
  }
  Graph g = b.Build();
  EXPECT_EQ(KCoreVertices(g, 2), (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(KCoreVertices(g, 3), (std::vector<VertexId>{}));
}

TEST(KCoreTest, CoreIsMonotoneUnderDegree) {
  Rng rng(55);
  Graph g = ErdosRenyi(30, 100, rng);
  auto core = CoreDecomposition(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(core[v], g.degree(v));
  }
}

// Brute-force core check: max over subgraphs is hard, but the defining
// fixpoint is easy — iteratively remove vertices with degree < k.
std::set<VertexId> BruteForceKCore(const Graph& g, uint32_t k) {
  std::set<VertexId> alive;
  for (VertexId v = 0; v < g.num_vertices(); ++v) alive.insert(v);
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = alive.begin(); it != alive.end();) {
      uint32_t deg = 0;
      for (const Neighbor& nb : g.neighbors(*it)) {
        if (alive.count(nb.vertex)) ++deg;
      }
      if (deg < k) {
        it = alive.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
  return alive;
}

class KCorePropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(KCorePropertyTest, DecompositionMatchesFixpoint) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  Graph g = ErdosRenyi(20, 70, rng);
  auto fast = KCoreVertices(g, k);
  auto slow = BruteForceKCore(g, k);
  EXPECT_EQ(std::set<VertexId>(fast.begin(), fast.end()), slow);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, KCorePropertyTest,
    ::testing::Combine(::testing::Values(10, 20, 30, 40),
                       ::testing::Values(2u, 3u, 4u)));

// Cohen's structural relation: a k-truss (k>=2) is a subgraph of the
// (k-1)-core of the graph (every vertex of a k-truss has degree >= k-1
// within the truss).
TEST(KTrussKCoreTest, KTrussInsideKMinus1Core) {
  Rng rng(321);
  Graph g = ErdosRenyi(24, 110, rng);
  for (uint32_t k = 3; k <= 5; ++k) {
    auto truss_edges = KTrussEdges(g, k);
    auto core = CoreDecomposition(g);
    for (const Edge& e : truss_edges) {
      EXPECT_GE(core[e.u], k - 1) << "k=" << k;
      EXPECT_GE(core[e.v], k - 1) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace tcf
