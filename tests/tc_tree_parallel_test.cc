// Property tests for the parallel TC-Tree build: whatever the thread
// count, the ordered-commit merge must produce the *same arena* — same
// node ids, same child lists, same decompositions, field for field —
// including under `max_nodes` truncation and `max_depth` caps, with
// every build-stats counter invariant too. The networks come from the
// real generators (BK-like check-in, SYN) rather than the tiny
// hand-built fixtures, so the trees are deep enough that waves 2+
// actually fan out.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/tc_tree.h"
#include "core/tcfi_format.h"
#include "gen/checkin_generator.h"
#include "gen/syn_generator.h"
#include "test_util.h"

namespace tcf {
namespace {

using testing::ExpectSameTree;

DatabaseNetwork SmallBkLike(uint64_t seed) {
  CheckinParams p;
  p.num_users = 120;
  p.num_locations = 24;
  p.periods_per_user = 20;
  p.seed = seed;
  return GenerateCheckinNetwork(p);
}

DatabaseNetwork SmallSyn(uint64_t seed) {
  SynParams p;
  p.num_vertices = 300;
  p.num_edges = 1800;
  p.num_items = 60;
  p.num_seeds = 12;
  p.seed = seed;
  return GenerateSynNetwork(p);
}

void ExpectStatsEqual(const TcTreeBuildStats& a, const TcTreeBuildStats& b) {
  EXPECT_EQ(a.candidates_considered, b.candidates_considered);
  EXPECT_EQ(a.pruned_by_intersection, b.pruned_by_intersection);
  EXPECT_EQ(a.mptd_calls, b.mptd_calls);
  EXPECT_EQ(a.truncated, b.truncated);
}

/// Builds with 1, 2 and 8 threads under `options` (num_threads is
/// overridden) and asserts identical trees + invariant stats. Returns
/// the 1-thread tree for further checks.
TcTree ExpectThreadCountInvariant(const DatabaseNetwork& net,
                                  TcTreeOptions options) {
  options.num_threads = 1;
  TcTree reference = TcTree::Build(net, options);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    options.num_threads = threads;
    TcTree tree = TcTree::Build(net, options);
    ExpectSameTree(reference, tree,
                   "num_threads=" + std::to_string(threads));
    ExpectStatsEqual(tree.build_stats(), reference.build_stats());
  }
  return reference;
}

TEST(TcTreeParallelTest, BkLikeIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {7u, 21u}) {
    DatabaseNetwork net = SmallBkLike(seed);
    TcTree tree = ExpectThreadCountInvariant(net, {});
    EXPECT_GT(tree.num_nodes(), 0u) << "degenerate fixture, seed " << seed;
    EXPECT_GT(tree.MaxDepth(), 1u)
        << "tree too shallow to exercise waves past layer 1, seed " << seed;
  }
}

TEST(TcTreeParallelTest, SynIdenticalAcrossThreadCounts) {
  DatabaseNetwork net = SmallSyn(5);
  TcTree tree = ExpectThreadCountInvariant(net, {});
  EXPECT_GT(tree.num_nodes(), 0u) << "degenerate fixture";
}

TEST(TcTreeParallelTest, IdenticalUnderNodeBudgetTruncation) {
  DatabaseNetwork net = SmallBkLike(7);
  TcTree full = TcTree::Build(net, {.num_threads = 1});
  ASSERT_GT(full.num_nodes(), 4u) << "tree too small to truncate";
  // Sweep several budgets so the trip lands at different commit points
  // (mid-wave, wave boundary, mid-layer-1 overshoot).
  for (size_t budget :
       {size_t{1}, size_t{2}, full.num_nodes() / 2, full.num_nodes() - 1}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    TcTree tree =
        ExpectThreadCountInvariant(net, {.max_nodes = budget});
    EXPECT_TRUE(tree.build_stats().truncated);
  }
}

TEST(TcTreeParallelTest, IdenticalUnderDepthCap) {
  DatabaseNetwork net = SmallBkLike(21);
  for (size_t depth : {size_t{1}, size_t{2}, size_t{3}}) {
    TcTree tree = ExpectThreadCountInvariant(net, {.max_depth = depth});
    EXPECT_LE(tree.MaxDepth(), depth);
  }
}

TEST(TcTreeParallelTest, IdenticalUnderBudgetAndDepthTogether) {
  DatabaseNetwork net = SmallSyn(5);
  TcTree full = TcTree::Build(net, {.num_threads = 1});
  if (full.num_nodes() < 4) GTEST_SKIP() << "tree too small";
  ExpectThreadCountInvariant(
      net, {.max_depth = 2, .max_nodes = full.num_nodes() / 2});
}

TEST(TcTreeParallelTest, ParallelBuildRoundTripsThroughDisk) {
  // The equal-tree property must survive an actual save/map cycle: a
  // tree built with 8 threads, saved as TCFI, mapped and materialized,
  // is the same tree (guards the index file against depending on
  // build-only state).
  DatabaseNetwork net = SmallBkLike(7);
  TcTree tree = TcTree::Build(net, {.num_threads = 8});
  const std::string path =
      ::testing::TempDir() + "/tc_tree_parallel_roundtrip.tcfi";
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());
  auto mapped = MapTcTree(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectSameTree(tree, MaterializeTcTree(*mapped), "saved, mapped back");
}

}  // namespace
}  // namespace tcf
