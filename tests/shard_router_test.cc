// Property tests for the sharded serving path (core/partition.h + the
// shards of serve/query_service.h): for random BK-like / SYN networks,
// random queries, and N ∈ {1, 2, 3, 8}, a QueryService's answer must
// equal a serial QueryTcTree over the whole tree *field for field in
// identical BFS retrieval order* — the same oracle style as
// tc_tree_parallel_test.cc — under build caps (`max_nodes`,
// `max_depth`), result-shaping query knobs, and warm caches. Plus the
// structural guarantees the scatter-gather merge leans on:
// PartitionTcTree is an exact partition of the arena by layer-1 item
// ownership, and BuildShardTree over a PartitionTransactions network
// reproduces the partitioned full build field for field.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/partition.h"
#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "gen/checkin_generator.h"
#include "gen/syn_generator.h"
#include "serve/query_service.h"
#include "test_util.h"
#include "util/rng.h"

namespace tcf {
namespace {

using testing::ExpectSameAnswer;
using testing::ExpectSameTree;
using testing::TrussMatch;
using testing::WalkCounters;

constexpr size_t kShardCounts[] = {1, 2, 3, 8};

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

/// A random query over the network's live items: 1-5 items (dups fold
/// away in the Itemset), alpha from a grid that straddles typical
/// generator cohesions so some queries retrieve plenty and some prune
/// everything.
ServeQuery RandomQuery(const std::vector<ItemId>& items, Rng& rng) {
  static constexpr double kAlphas[] = {0.0, 0.02, 0.05, 0.1, 0.25, 0.6};
  const size_t len = 1 + rng.NextUint64(5);
  std::vector<ItemId> picked;
  for (size_t i = 0; i < len; ++i) {
    picked.push_back(items[rng.NextUint64(items.size())]);
  }
  return ServeQuery{Itemset(std::move(picked)),
                    kAlphas[rng.NextUint64(std::size(kAlphas))]};
}

/// Caching off, single worker, no tracing, `num_shards` shards: answers
/// come straight off the tree walks so every counter is comparable.
QueryServiceOptions BareOptions(size_t num_shards = 1) {
  QueryServiceOptions o;
  o.num_threads = 1;
  o.num_shards = num_shards;
  o.cache_bytes = 0;
  o.tracing = false;
  return o;
}

/// Runs `trials` random queries through a serial QueryTcTree over the
/// whole tree and a QueryService over *the same deterministic build*
/// split N ways, and asserts byte-identical answers for every N. Walk
/// counters are dropped only under `max_results`, where each shard
/// legitimately walks until its own budget's worth of answers
/// (visited/pruned may exceed the single-tree walk; trusses and
/// retrieved_nodes stay exact).
void ExpectShardParity(const DatabaseNetwork& net, const TcTreeOptions& build,
                       const QueryServiceOptions& service_options, int trials,
                       uint64_t seed,
                       WalkCounters counters = WalkCounters::kCompare) {
  const TcTree tree = TcTree::Build(net, build);
  const std::vector<ItemId> items = net.ActiveItems();
  ASSERT_FALSE(items.empty());
  for (size_t num_shards : kShardCounts) {
    SCOPED_TRACE("num_shards " + std::to_string(num_shards));
    QueryServiceOptions options = service_options;
    options.num_shards = num_shards;
    QueryService sharded(TcTree::Build(net, build), net.dictionary(),
                         options);
    ASSERT_EQ(sharded.num_shards(), num_shards);
    Rng rng(seed);  // same query stream against every shard count
    for (int t = 0; t < trials; ++t) {
      const ServeQuery q = RandomQuery(items, rng);
      QueryTrace trace;
      const TcTreeQueryResult expected =
          QueryTcTree(tree, q.items, q.alpha, options.query_options);
      const auto actual = sharded.Execute(q, &trace);
      ASSERT_NE(actual, nullptr);
      ExpectSameAnswer(expected, *actual,
                       "trial " + std::to_string(t) + " query " +
                           q.items.ToString() + " alpha " +
                           std::to_string(q.alpha),
                       counters, TrussMatch::kIdentical);
      // The scatter probed only shards that can own part of the answer.
      EXPECT_GE(trace.shards_probed, 1u);
      EXPECT_LE(trace.shards_probed, std::min(num_shards, q.items.size()));
    }
  }
}

TEST(ShardRouterTest, BkLikeShardedEqualsSingleShard) {
  for (uint64_t seed : {7u, 21u}) {
    SCOPED_TRACE("network seed " + std::to_string(seed));
    ExpectShardParity(SmallBkLike(seed), {}, BareOptions(), 40,
                      1000 + seed);
  }
}

TEST(ShardRouterTest, SynShardedEqualsSingleShard) {
  ExpectShardParity(SmallSyn(5), {}, BareOptions(), 40, 500);
}

TEST(ShardRouterTest, ParityUnderDepthCaps) {
  DatabaseNetwork net = SmallBkLike(21);
  for (size_t depth : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("max_depth " + std::to_string(depth));
    ExpectShardParity(net, {.max_depth = depth}, BareOptions(), 25, depth);
  }
}

TEST(ShardRouterTest, ParityUnderNodeBudgets) {
  // The global commit-order budget is the knob no independent per-shard
  // build could replicate; a sharded QueryService splits the one capped
  // build, so parity must hold at any truncation point.
  DatabaseNetwork net = SmallBkLike(7);
  const size_t full_nodes = TcTree::Build(net).num_nodes();
  ASSERT_GT(full_nodes, 4u);
  for (size_t budget : {size_t{2}, full_nodes / 3, full_nodes - 1}) {
    SCOPED_TRACE("max_nodes " + std::to_string(budget));
    ExpectShardParity(net, {.max_nodes = budget}, BareOptions(), 25, budget);
  }
}

TEST(ShardRouterTest, ParityUnderMinTrussEdges) {
  // Size filtering drops trusses from the result list without touching
  // traversal, so every field — counters included — stays exact.
  QueryServiceOptions options = BareOptions();
  options.query_options.min_truss_edges = 2;
  ExpectShardParity(SmallBkLike(7), {}, options, 25, 42);
}

TEST(ShardRouterTest, ParityUnderMaxResults) {
  // Truncation composes across shards in merge order: the merged truss
  // list and retrieved_nodes equal the single-tree walk's exactly, while
  // visited/pruned may exceed it (each shard walks to its own budget).
  for (size_t max_results : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("max_results " + std::to_string(max_results));
    QueryServiceOptions options = BareOptions();
    options.query_options.max_results = max_results;
    ExpectShardParity(SmallBkLike(7), {}, options, 25, max_results,
                      WalkCounters::kIgnore);
  }
}

TEST(ShardRouterTest, ParityWithWarmCachesAndComposition) {
  // Caching on with the compose gate forced open, every query asked
  // twice: the second round answers from per-shard caches (exact hits
  // and composed covers) and must still match the cold oracle walk.
  DatabaseNetwork net = SmallSyn(5);
  QueryServiceOptions options;
  options.num_threads = 1;
  options.tracing = false;
  options.cache_compose_min_walk_us = 0;
  const TcTree tree = TcTree::Build(net);
  const std::vector<ItemId> items = net.ActiveItems();
  for (size_t num_shards : kShardCounts) {
    SCOPED_TRACE("num_shards " + std::to_string(num_shards));
    options.num_shards = num_shards;
    QueryService sharded(TcTree::Build(net), net.dictionary(), options);
    Rng rng(99);
    std::vector<ServeQuery> queries;
    for (int t = 0; t < 30; ++t) queries.push_back(RandomQuery(items, rng));
    for (int round = 0; round < 2; ++round) {
      for (size_t t = 0; t < queries.size(); ++t) {
        const ServeQuery& q = queries[t];
        ExpectSameAnswer(QueryTcTree(tree, q.items, q.alpha),
                         *sharded.Execute(q),
                         "round " + std::to_string(round) + " trial " +
                             std::to_string(t),
                         WalkCounters::kIgnore, TrussMatch::kIdentical);
      }
    }
    const ResultCacheStats cache = sharded.cache_stats();
    EXPECT_GT(cache.hits, 0u) << "second round never hit the shard caches";
  }
}

TEST(ShardRouterTest, BatchParityAcrossShardCounts) {
  DatabaseNetwork net = SmallBkLike(7);
  const TcTree tree = TcTree::Build(net);
  const std::vector<ItemId> items = net.ActiveItems();
  Rng rng(3);
  std::vector<ServeQuery> batch;
  for (int t = 0; t < 64; ++t) batch.push_back(RandomQuery(items, rng));
  for (size_t num_shards : kShardCounts) {
    SCOPED_TRACE("num_shards " + std::to_string(num_shards));
    QueryServiceOptions options = BareOptions(num_shards);
    options.num_threads = 4;  // real fan-out over the service pool
    QueryService sharded(TcTree::Build(net), net.dictionary(), options);
    const auto results = sharded.ExecuteBatch(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_NE(results[i], nullptr);
      ExpectSameAnswer(QueryTcTree(tree, batch[i].items, batch[i].alpha),
                       *results[i], "batch slot " + std::to_string(i),
                       WalkCounters::kCompare, TrussMatch::kIdentical);
    }
  }
}

TEST(ShardRouterTest, PartitionTcTreeIsAnExactPartition) {
  // Structural half of the parity argument: every non-root node lands on
  // exactly one shard (the shard of its layer-1 ancestor's item), arena
  // order preserved, nothing duplicated or dropped.
  DatabaseNetwork net = SmallBkLike(7);
  HashShardPartitioner partitioner;
  for (size_t num_shards : {size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE("num_shards " + std::to_string(num_shards));
    TcTree full = TcTree::Build(net);
    const size_t full_nodes = full.num_nodes();  // excludes the root
    std::multiset<std::string> full_patterns;
    for (TcTree::NodeId id = 1; id <= full_nodes; ++id) {
      full_patterns.insert(full.PatternOf(id).ToString());
    }
    std::vector<TcTree> shards =
        PartitionTcTree(std::move(full), partitioner, num_shards);
    ASSERT_EQ(shards.size(), num_shards);
    size_t total = 0;
    std::multiset<std::string> shard_patterns;
    for (size_t s = 0; s < num_shards; ++s) {
      total += shards[s].num_nodes();
      for (TcTree::NodeId id = 1; id <= shards[s].num_nodes(); ++id) {
        const Itemset pattern = shards[s].PatternOf(id);
        shard_patterns.insert(pattern.ToString());
        // Ownership: min(pattern) is the layer-1 ancestor's item.
        EXPECT_EQ(partitioner.ShardOf(pattern[0], num_shards), s)
            << "shard " << s << " holds foreign pattern "
            << pattern.ToString();
      }
    }
    EXPECT_EQ(total, full_nodes);
    EXPECT_EQ(shard_patterns, full_patterns);
  }
}

TEST(ShardRouterTest, BuildShardTreeMatchesPartitionedFullBuild) {
  // The build-side soundness claim: building over the partitioned
  // network (thinned foreign transaction databases, full topology) and
  // stripping foreign subtrees reproduces PartitionTcTree of the full
  // build *field for field* — Prop.-5.3 right-sibling partners and all.
  HashShardPartitioner partitioner;
  for (int which = 0; which < 2; ++which) {
    DatabaseNetwork net = which == 0 ? SmallBkLike(7) : SmallSyn(5);
    SCOPED_TRACE(which == 0 ? "bk-like" : "syn");
    for (size_t num_shards : {size_t{2}, size_t{3}}) {
      SCOPED_TRACE("num_shards " + std::to_string(num_shards));
      std::vector<TcTree> expected =
          PartitionTcTree(TcTree::Build(net), partitioner, num_shards);
      std::vector<DatabaseNetwork> shard_nets =
          PartitionTransactions(net, partitioner, num_shards);
      ASSERT_EQ(shard_nets.size(), num_shards);
      for (size_t s = 0; s < num_shards; ++s) {
        TcTree direct =
            BuildShardTree(shard_nets[s], partitioner, num_shards, s);
        ExpectSameTree(expected[s], direct, "shard " + std::to_string(s));
      }
    }
  }
}

TEST(ShardRouterTest, RollingSwapKeepsParityMidRoll) {
  // A rolling reload with the *same* index (the RELOAD smoke case) must
  // be invisible: swap shards one at a time and re-check parity after
  // every single-shard swap — answers never mix snapshots because the
  // per-shard answer sets are disjoint.
  DatabaseNetwork net = SmallBkLike(7);
  const size_t num_shards = 3;
  const TcTree tree = TcTree::Build(net);
  QueryService sharded(TcTree::Build(net), net.dictionary(),
                       BareOptions(num_shards));
  const std::vector<ItemId> items = net.ActiveItems();
  HashShardPartitioner partitioner;
  for (size_t s = 0; s < num_shards; ++s) {
    std::vector<TcTree> parts =
        PartitionTcTree(TcTree::Build(net), partitioner, num_shards);
    sharded.SwapShardSnapshot(
        s, std::make_shared<const TcTreeSnapshot>(std::move(parts[s])));
    Rng rng(7 * (s + 1));
    for (int t = 0; t < 15; ++t) {
      const ServeQuery q = RandomQuery(items, rng);
      ExpectSameAnswer(QueryTcTree(tree, q.items, q.alpha),
                       *sharded.Execute(q),
                       "after swapping shard " + std::to_string(s) +
                           " trial " + std::to_string(t),
                       WalkCounters::kCompare, TrussMatch::kIdentical);
    }
  }
  EXPECT_GT(sharded.Report().shard_reload_ms, 0.0);
}

}  // namespace
}  // namespace tcf
