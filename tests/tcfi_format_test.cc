// TCFI mmap snapshot format: round-trip fidelity, mapped-vs-owned query
// equivalence (byte-for-byte), shard slices, and the header probe.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "core/partition.h"
#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "core/tc_tree_snapshot.h"
#include "core/tcfi_format.h"
#include "test_util.h"

namespace tcf {
namespace {

using testing::ExpectSameAnswer;
using testing::ExpectSameTree;
using testing::MakeFigureOneNetwork;
using testing::MakeRandomNetwork;
using testing::WalkCounters;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

TcTree BuildRandomTree(uint64_t seed) {
  return TcTree::Build(MakeRandomNetwork(
      {.num_vertices = 14, .num_items = 6, .tx_per_vertex = 7, .seed = seed}));
}

// Save → map → materialize gives back the same tree, field for field,
// and re-saving it reproduces the original file byte for byte: nothing
// about the tree survives only in memory.
TEST(TcfiFormatTest, MaterializedRoundTripIsByteIdentical) {
  const TcTree tree = BuildRandomTree(21);
  const std::string path = TempPath("tcfi_roundtrip.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());
  auto mapped = MapTcTree(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  const TcTree rebuilt = MaterializeTcTree(*mapped);
  ExpectSameTree(tree, rebuilt, "materialized");
  const std::string resaved = TempPath("tcfi_roundtrip_resaved.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(rebuilt, resaved).ok());
  EXPECT_EQ(ReadFile(path), ReadFile(resaved));
}

TEST(TcfiFormatTest, MappedMetadataMatchesTree) {
  const TcTree tree = BuildRandomTree(22);
  const std::string path = TempPath("tcfi_meta.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());
  auto mapped = MapTcTree(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->num_nodes(), tree.num_nodes());
  EXPECT_EQ(mapped->MaxAlphaOverNodes(), tree.MaxAlphaOverNodes());
  EXPECT_EQ(mapped->MaxDepth(), tree.MaxDepth());
  EXPECT_EQ(mapped->TotalIndexedEdges(), tree.TotalIndexedEdges());
  EXPECT_EQ(mapped->shard_id(), 0u);
  EXPECT_EQ(mapped->num_shards(), 1u);
  for (TcTree::NodeId id = 1; id <= tree.num_nodes(); ++id) {
    ASSERT_EQ(mapped->PatternOf(id), tree.PatternOf(id)) << "node " << id;
    ASSERT_EQ(mapped->node_max_alpha(id),
              tree.node(id).decomposition.max_alpha());
  }
}

// The acceptance bar: the mapped walk answers every query byte-for-byte
// like the owned tree, across an alpha grid and itemset shapes,
// including the counters composition equivalence depends on.
TEST(TcfiFormatTest, MappedQueriesMatchOwnedAcrossGrid) {
  const TcTree tree = BuildRandomTree(23);
  const std::string path = TempPath("tcfi_queries.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());
  auto mapped = MapTcTree(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  const std::vector<Itemset> queries = {
      Itemset({0}),          Itemset({1, 2}),       Itemset({0, 1, 2}),
      Itemset({2, 3, 4, 5}), Itemset({0, 1, 2, 3, 4, 5})};
  for (double alpha : {0.0, 0.05, 0.11, 0.2, 0.5, 1.0}) {
    for (const Itemset& q : queries) {
      ExpectSameAnswer(QueryTcTree(tree, q, alpha),
                       QueryTcTree(*mapped, q, alpha),
                       "alpha=" + std::to_string(alpha) + " q=" + q.ToString(),
                       WalkCounters::kCompare);
    }
  }
}

TEST(TcfiFormatTest, MappedCompositionMatchesCold) {
  const TcTree tree = BuildRandomTree(24);
  const std::string path = TempPath("tcfi_compose.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());
  auto mapped = MapTcTree(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  const double alpha = 0.08;
  const Itemset q({0, 1, 2, 3});
  const Itemset c1({0, 1});
  const Itemset c2({2, 3});
  const TcTreeQueryResult r1 = QueryTcTree(*mapped, c1, alpha);
  const TcTreeQueryResult r2 = QueryTcTree(*mapped, c2, alpha);
  const std::vector<SubPatternCover> covers = {{&c1, &r1}, {&c2, &r2}};
  ExpectSameAnswer(QueryTcTree(tree, q, alpha),
                   ComposeTcTreeQuery(*mapped, q, alpha, covers),
                   "composed over mapped", WalkCounters::kCompare);
}

TEST(TcfiFormatTest, SnapshotDispatchesBothFlavors) {
  const TcTree tree = BuildRandomTree(25);
  const std::string path = TempPath("tcfi_snapshot.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());
  auto mapped = MapTcTree(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  const TcTreeSnapshot owned{TcTree(tree)};
  const TcTreeSnapshot zero_copy{std::move(*mapped)};
  EXPECT_FALSE(owned.mapped());
  EXPECT_TRUE(zero_copy.mapped());
  EXPECT_EQ(owned.num_nodes(), zero_copy.num_nodes());
  EXPECT_EQ(owned.MaxAlphaOverNodes(), zero_copy.MaxAlphaOverNodes());
  const Itemset q({0, 2, 4});
  ExpectSameAnswer(owned.Query(q, 0.1), zero_copy.Query(q, 0.1),
                   "snapshot query", WalkCounters::kCompare);
  ExpectSameTree(owned.MaterializeTree(), zero_copy.MaterializeTree(),
                 "materialized snapshots");
}

TEST(TcfiFormatTest, RootOnlyTreeRoundTrips) {
  std::deque<TcTree::Node> nodes(1);  // just a root
  const TcTree tree = TcTree::FromNodes(std::move(nodes));
  const std::string path = TempPath("tcfi_empty.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());
  auto mapped = MapTcTree(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->num_nodes(), 0u);
  EXPECT_TRUE(QueryTcTree(*mapped, Itemset({0, 1}), 0.0).trusses.empty());
}

TEST(TcfiFormatTest, ShardSlicesCarryMetadataAndPartitionExactly) {
  const size_t kShards = 3;
  const TcTree tree = BuildRandomTree(26);
  const std::string base = TempPath("tcfi_sliced.tcfi");
  ASSERT_TRUE(SaveTcfiShardSlices(TcTree(tree), base, kShards).ok());

  // Reference partition of the same tree with the same partitioner.
  const HashShardPartitioner partitioner;
  const std::vector<TcTree> parts =
      PartitionTcTree(TcTree(tree), partitioner, kShards);

  size_t total_nodes = 0;
  for (size_t s = 0; s < kShards; ++s) {
    auto mapped = MapTcTree(TcfiSlicePath(base, s, kShards));
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    EXPECT_EQ(mapped->shard_id(), s);
    EXPECT_EQ(mapped->num_shards(), kShards);
    total_nodes += mapped->num_nodes();
    ExpectSameTree(parts[s], MaterializeTcTree(*mapped),
                   "slice " + std::to_string(s));
  }
  EXPECT_EQ(total_nodes, tree.num_nodes());
}

TEST(TcfiFormatTest, ProbeAcceptsOnlyWholeTcfiFiles) {
  const TcTree tree = BuildRandomTree(27);
  const std::string tcfi_path = TempPath("tcfi_probe.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(tree, tcfi_path).ok());
  EXPECT_TRUE(ProbeTcfiFile(tcfi_path).ok());
  EXPECT_TRUE(ProbeTcfiFile("/no/such/file.tcfi").IsIOError());

  // A header-sized file in another format (any other magic) fails the
  // probe and the map with a Corruption that says how to get a
  // loadable file.
  const std::string foreign_path = TempPath("tcfi_probe_foreign.idx");
  {
    std::ofstream out(foreign_path, std::ios::binary);
    out << "XXXX" << std::string(sizeof(TcfiHeader), '\x01');
  }
  const Status probe = ProbeTcfiFile(foreign_path);
  EXPECT_TRUE(probe.IsCorruption()) << probe;
  EXPECT_NE(probe.message().find("rebuild it with `tcf index`"),
            std::string::npos)
      << probe;
  EXPECT_TRUE(MapTcTree(foreign_path).status().IsCorruption());

  // The writer leaves no temp droppings behind.
  std::ifstream tmp(tcfi_path + ".tmp");
  EXPECT_FALSE(tmp.is_open());
}

TEST(TcfiFormatTest, FigureOneSemanticsSurviveMapping) {
  const TcTree tree = TcTree::Build(MakeFigureOneNetwork());
  const std::string path = TempPath("tcfi_fig1.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());
  auto mapped = MapTcTree(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  // At α ∈ [0, 0.2) item 0's truss holds K4 + triangle; at 0.25 only the
  // triangle; at 0.35 nothing (see MakeFigureOneNetwork's contract).
  EXPECT_EQ(QueryTcTree(*mapped, Itemset({0}), 0.0).trusses.size(), 1u);
  EXPECT_EQ(
      QueryTcTree(*mapped, Itemset({0}), 0.25).trusses.at(0).edges.size(),
      3u);
  EXPECT_TRUE(QueryTcTree(*mapped, Itemset({0}), 0.35).trusses.empty());
}

}  // namespace
}  // namespace tcf
