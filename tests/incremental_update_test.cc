// The rebuild-oracle differential suite for incremental TC-Tree
// maintenance (core/tc_tree_update.h). The contract under test: after
// every randomized update batch, the incrementally maintained index is
// *field-for-field identical* — arena order, node ids, child lists,
// every decomposition level — to a from-scratch TcTree::Build on the
// accumulated network, across BK-like / SYN / uniform generators, build
// thread counts, build budgets (max_nodes / max_depth), shard counts
// {1, 2, 8}, and warm composing caches kept live through the rolling
// delta swaps. The changed-root hints the updater emits are verified
// against their shard-skip meaning: a root *not* reported changed must
// head a subtree identical to the pre-update snapshot's.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/tc_tree.h"
#include "core/tc_tree_snapshot.h"
#include "core/tc_tree_update.h"
#include "core/tcfi_format.h"
#include "gen/checkin_generator.h"
#include "gen/syn_generator.h"
#include "net/database_network.h"
#include "serve/query_backend.h"
#include "serve/query_service.h"
#include "test_util.h"
#include "tx/itemset.h"
#include "util/rng.h"

namespace tcf {
namespace {

using testing::ExpectSameAnswer;
using testing::ExpectSameDecomposition;
using testing::ExpectSameTree;

// ---------------------------------------------------------------------
// Network factories. Each is called twice per scenario with the same
// seed: once for the updater's authoritative copy, once for the oracle
// that replays the same mutations and rebuilds from scratch.
// ---------------------------------------------------------------------

DatabaseNetwork TinyBkLike(uint64_t seed) {
  CheckinParams p;
  p.num_users = 48;
  p.num_locations = 14;
  p.friends_k = 3;
  p.periods_per_user = 10;
  p.favorites_per_user = 5;
  p.seed = seed;
  return GenerateCheckinNetwork(p);
}

DatabaseNetwork TinySyn(uint64_t seed) {
  SynParams p;
  p.num_vertices = 60;
  p.num_edges = 240;
  p.num_items = 16;
  p.num_seeds = 8;
  p.seed = seed;
  return GenerateSynNetwork(p);
}

DatabaseNetwork TinyUniform(uint64_t seed) {
  testing::RandomNetOptions o;
  o.num_vertices = 16;
  o.edge_prob = 0.4;
  o.num_items = 6;
  o.tx_per_vertex = 5;
  o.seed = seed;
  return testing::MakeRandomNetwork(o);
}

// ---------------------------------------------------------------------
// Randomized update batches. The same NetworkUpdate is applied to the
// updater (through Apply) and replayed onto the oracle network, so both
// sides accumulate identical state.
// ---------------------------------------------------------------------

NetworkUpdate RandomBatch(Rng& rng, const DatabaseNetwork& net, size_t ops) {
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

void ReplayOnOracle(DatabaseNetwork& oracle, const NetworkUpdate& u) {
  for (const NetworkUpdate::TxInsert& tx : u.transactions) {
    ASSERT_TRUE(oracle.AddTransaction(tx.vertex, tx.items).ok());
  }
  for (const Edge& e : u.edges) {
    ASSERT_TRUE(oracle.AddEdge(e.u, e.v).ok());
  }
}

/// The updater's current index as an owned tree (a mapped baseline is
/// materialized), for the field-for-field comparisons.
TcTree UpdaterTree(const IndexUpdater& updater) {
  return updater.snapshot()->MaterializeTree();
}

// ---------------------------------------------------------------------
// Field-for-field subtree equality (whole trees: ExpectSameTree).
// ---------------------------------------------------------------------

void ExpectSubtreesEqual(const TcTree& a, TcTree::NodeId na, const TcTree& b,
                         TcTree::NodeId nb) {
  EXPECT_EQ(a.node(na).item, b.node(nb).item);
  ExpectSameDecomposition(a.node(na).decomposition,
                          b.node(nb).decomposition);
  ASSERT_EQ(a.node(na).children.size(), b.node(nb).children.size());
  for (size_t i = 0; i < a.node(na).children.size(); ++i) {
    ExpectSubtreesEqual(a, a.node(na).children[i], b, b.node(nb).children[i]);
  }
}

/// The shard-skip contract behind `changed_roots`: a layer-1 root the
/// updater did NOT report changed must head a subtree identical to the
/// pre-update snapshot's — in both directions (present in one iff
/// present in the other).
void ExpectUnchangedRootsStable(const TcTree& before, const TcTree& after,
                                const std::vector<ItemId>& changed_roots) {
  auto is_changed = [&](ItemId item) {
    return std::binary_search(changed_roots.begin(), changed_roots.end(),
                              item);
  };
  auto root_child = [](const TcTree& t, ItemId item) -> TcTree::NodeId {
    for (TcTree::NodeId c : t.node(TcTree::kRoot).children) {
      if (t.node(c).item == item) return c;
    }
    return TcTree::kNoParent;
  };
  for (TcTree::NodeId c : after.node(TcTree::kRoot).children) {
    const ItemId item = after.node(c).item;
    if (is_changed(item)) continue;
    SCOPED_TRACE("unchanged root item " + std::to_string(item));
    const TcTree::NodeId old_c = root_child(before, item);
    ASSERT_NE(old_c, TcTree::kNoParent);
    ExpectSubtreesEqual(after, c, before, old_c);
  }
  for (TcTree::NodeId c : before.node(TcTree::kRoot).children) {
    const ItemId item = before.node(c).item;
    if (is_changed(item)) continue;
    EXPECT_NE(root_child(after, item), TcTree::kNoParent)
        << "unchanged root " << item << " vanished";
  }
}

// ---------------------------------------------------------------------
// The core differential: K random batches, incremental vs full rebuild
// after every one of them.
// ---------------------------------------------------------------------

void RunDifferential(DatabaseNetwork updater_net, DatabaseNetwork oracle_net,
                     const TcTreeOptions& update_options,
                     const TcTreeOptions& oracle_options, uint64_t seed,
                     size_t batches, size_t ops_per_batch) {
  TcTree initial = TcTree::Build(updater_net, update_options);
  ExpectSameTree(initial, TcTree::Build(oracle_net, oracle_options),
                 "initial builds disagree");
  IndexUpdater updater(std::move(updater_net), std::move(initial),
                       /*sink=*/nullptr, update_options);

  Rng rng(seed * 7919 + 17);
  for (size_t b = 0; b < batches; ++b) {
    NetworkUpdate batch = RandomBatch(rng, updater.network(), ops_per_batch);
    const TcTree before = UpdaterTree(updater);
    ReplayOnOracle(oracle_net, batch);

    // Check the dirty/changed hints against a standalone UpdateTcTree
    // call too (Apply consumes the batch, so compute dirty first).
    const std::vector<ItemId> dirty =
        ComputeDirtyItems(updater.network(), batch);

    auto outcome = updater.Apply(std::move(batch));
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_EQ(outcome->dirty_items, dirty.size());

    const TcTree oracle = TcTree::Build(oracle_net, oracle_options);
    ExpectSameTree(UpdaterTree(updater), oracle,
                   "batch " + std::to_string(b) + " seed " +
                       std::to_string(seed));
    EXPECT_EQ(outcome->tree_nodes, oracle.num_nodes());

    if (!outcome->stats.full_rebuild && !oracle.build_stats().truncated) {
      // UpdateTcTree is pure in its inputs: re-running it on the
      // pre-update tree recovers the changed-root hints Apply consumed.
      TcTreeUpdateResult redo =
          UpdateTcTree(before, updater.network(), dirty, update_options);
      EXPECT_EQ(redo.changed_roots.size(), outcome->changed_roots);
      ExpectUnchangedRootsStable(before, UpdaterTree(updater),
                                 redo.changed_roots);
    }
  }
}

TEST(IncrementalUpdateDifferential, BkLikeSingleThread) {
  for (uint64_t seed : {1, 2, 3}) {
    RunDifferential(TinyBkLike(seed), TinyBkLike(seed), {}, {}, seed,
                    /*batches=*/4, /*ops_per_batch=*/4);
  }
}

TEST(IncrementalUpdateDifferential, SynSingleThread) {
  for (uint64_t seed : {4, 5, 6}) {
    RunDifferential(TinySyn(seed), TinySyn(seed), {}, {}, seed,
                    /*batches=*/4, /*ops_per_batch=*/4);
  }
}

TEST(IncrementalUpdateDifferential, UniformManySmallBatches) {
  for (uint64_t seed : {7, 8, 9, 10}) {
    RunDifferential(TinyUniform(seed), TinyUniform(seed), {}, {}, seed,
                    /*batches=*/8, /*ops_per_batch=*/2);
  }
}

// The incremental replay with a parallel pool must equal the
// single-threaded from-scratch build — thread-count independence of the
// update path, piggybacking on the deterministic wave commit.
TEST(IncrementalUpdateDifferential, ParallelReplayMatchesSequentialRebuild) {
  TcTreeOptions parallel;
  parallel.num_threads = 4;
  TcTreeOptions sequential;
  sequential.num_threads = 1;
  for (uint64_t seed : {11, 12}) {
    RunDifferential(TinyBkLike(seed), TinyBkLike(seed), parallel, sequential,
                    seed, /*batches=*/3, /*ops_per_batch=*/5);
  }
}

// Budgeted builds: the replay must reproduce the rebuild's max_depth
// cut exactly, and trip a max_nodes budget at the identical node.
TEST(IncrementalUpdateDifferential, DepthCappedBuilds) {
  TcTreeOptions capped;
  capped.max_depth = 2;
  for (uint64_t seed : {13, 14}) {
    RunDifferential(TinyBkLike(seed), TinyBkLike(seed), capped, capped, seed,
                    /*batches=*/3, /*ops_per_batch=*/4);
  }
}

// ---------------------------------------------------------------------
// Mapped baselines: a server's updater replays from the TCFI snapshot it
// serves. Every batch, the pre-update tree is saved and mapped back, and
// UpdateTcTree over the mapped file must equal the owned-baseline replay
// and the from-scratch rebuild field for field, with the same work
// counters and changed roots. An IndexUpdater started from the mapped
// initial index must track one started from the owned tree.
// ---------------------------------------------------------------------

void ExpectSameUpdate(const TcTreeUpdateResult& from_file,
                      const TcTreeUpdateResult& from_tree,
                      const std::string& context) {
  ExpectSameTree(from_tree.tree, from_file.tree, context);
  EXPECT_EQ(from_file.stats.copied, from_tree.stats.copied) << context;
  EXPECT_EQ(from_file.stats.recomputed, from_tree.stats.recomputed)
      << context;
  EXPECT_EQ(from_file.stats.full_rebuild, from_tree.stats.full_rebuild)
      << context;
  EXPECT_EQ(from_file.changed_roots, from_tree.changed_roots) << context;
}

/// `*file_rebuilds` (when given) counts the mapped replays that fell
/// back to a full rebuild.
void RunMappedDifferential(DatabaseNetwork (*make)(uint64_t), uint64_t seed,
                           const TcTreeOptions& options, size_t batches,
                           size_t ops_per_batch,
                           size_t* file_rebuilds = nullptr) {
  const std::string path = ::testing::TempDir() + "/mapped_baseline_" +
                           std::to_string(seed) + ".tcfi";
  DatabaseNetwork net = make(seed);  // the standalone replays' network
  TcTree owned = TcTree::Build(net, options);
  ASSERT_TRUE(SaveTcTreeBinary(owned, path).ok());
  auto initial = MapTcTree(path);
  ASSERT_TRUE(initial.ok()) << initial.status();
  IndexUpdater from_tree(make(seed), TcTree(owned), nullptr, options);
  IndexUpdater from_file(
      make(seed), std::make_shared<const TcTreeSnapshot>(std::move(*initial)),
      nullptr, options);
  ASSERT_TRUE(from_file.snapshot()->mapped());

  Rng rng(seed * 104729 + 3);
  for (size_t b = 0; b < batches; ++b) {
    const std::string context =
        "batch " + std::to_string(b) + " seed " + std::to_string(seed);
    NetworkUpdate batch = RandomBatch(rng, net, ops_per_batch);
    ASSERT_TRUE(SaveTcTreeBinary(owned, path).ok());
    auto mapped = MapTcTree(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    const std::vector<ItemId> dirty = ComputeDirtyItems(net, batch);
    ReplayOnOracle(net, batch);

    TcTreeUpdateResult replay_tree = UpdateTcTree(owned, net, dirty, options);
    TcTreeUpdateResult replay_file = UpdateTcTree(
        TcTreeSnapshot(std::move(*mapped)), net, dirty, options);
    ExpectSameUpdate(replay_file, replay_tree, context);
    if (file_rebuilds != nullptr && replay_file.stats.full_rebuild) {
      ++*file_rebuilds;
    }
    const TcTree oracle = TcTree::Build(net, options);
    ExpectSameTree(oracle, replay_file.tree, context + " vs rebuild");

    auto a = from_tree.Apply(batch);
    auto m = from_file.Apply(std::move(batch));
    ASSERT_TRUE(a.ok() && m.ok()) << context;
    EXPECT_EQ(m->stats.copied, a->stats.copied) << context;
    EXPECT_EQ(m->stats.recomputed, a->stats.recomputed) << context;
    EXPECT_EQ(m->stats.full_rebuild, a->stats.full_rebuild) << context;
    EXPECT_EQ(m->changed_roots, a->changed_roots) << context;
    ExpectSameTree(oracle, UpdaterTree(from_file), context + " updater");
    owned = std::move(replay_tree.tree);
  }
  std::remove(path.c_str());
}

TEST(IncrementalUpdateMappedBaseline, MatchesOwnedBaselineAndRebuild) {
  for (uint64_t seed : {1, 2}) {
    RunMappedDifferential(TinyBkLike, seed, {}, /*batches=*/4,
                          /*ops_per_batch=*/4);
  }
  for (uint64_t seed : {4, 5}) {
    RunMappedDifferential(TinySyn, seed, {}, /*batches=*/4,
                          /*ops_per_batch=*/4);
  }
  for (uint64_t seed : {7, 8}) {
    RunMappedDifferential(TinyUniform, seed, {}, /*batches=*/8,
                          /*ops_per_batch=*/2);
  }
}

TEST(IncrementalUpdateMappedBaseline, DepthCapped) {
  TcTreeOptions capped;
  capped.max_depth = 2;
  RunMappedDifferential(TinyBkLike, 13, capped, /*batches=*/3,
                        /*ops_per_batch=*/4);
}

// TCFI drops the build's `truncated` bit, so a mapped truncated tree
// must still fall back to a full rebuild — through its node count.
TEST(IncrementalUpdateMappedBaseline, TruncatedFallsBackThroughNodeCount) {
  TcTreeOptions budgeted;
  budgeted.max_nodes = 4;
  const TcTree initial = TcTree::Build(TinyUniform(16), budgeted);
  ASSERT_TRUE(initial.build_stats().truncated);
  ASSERT_GE(initial.num_nodes(), budgeted.max_nodes);
  size_t file_rebuilds = 0;
  RunMappedDifferential(TinyUniform, 16, budgeted, /*batches=*/3,
                        /*ops_per_batch=*/3, &file_rebuilds);
  EXPECT_EQ(file_rebuilds, 3u);
}

TEST(IncrementalUpdateDifferential, NodeBudgetTripsAtSameNode) {
  const uint64_t seed = 15;
  DatabaseNetwork updater_net = TinyUniform(seed);
  DatabaseNetwork oracle_net = TinyUniform(seed);
  // Pick a budget the *initial* tree fits under but update growth can
  // overflow; whether or not the replay trips it, it must match the
  // budgeted rebuild field-for-field.
  TcTreeOptions unbounded;
  const size_t full = TcTree::Build(updater_net, unbounded).num_nodes();
  TcTreeOptions budgeted;
  budgeted.max_nodes = full + 3;
  RunDifferential(std::move(updater_net), std::move(oracle_net), budgeted,
                  budgeted, seed, /*batches=*/6, /*ops_per_batch=*/4);
}

// A truncated live tree cannot prove absence-means-empty, so the
// updater must fall back to a full rebuild — and still match the
// oracle.
TEST(IncrementalUpdate, TruncatedTreeFallsBackToFullRebuild) {
  const uint64_t seed = 16;
  DatabaseNetwork updater_net = TinyUniform(seed);
  DatabaseNetwork oracle_net = TinyUniform(seed);
  TcTreeOptions budgeted;
  budgeted.max_nodes = 4;  // far below the full tree: truncated for sure
  TcTree initial = TcTree::Build(updater_net, budgeted);
  ASSERT_TRUE(initial.build_stats().truncated);
  IndexUpdater updater(std::move(updater_net), std::move(initial), nullptr,
                       budgeted);

  Rng rng(seed);
  NetworkUpdate batch = RandomBatch(rng, updater.network(), 3);
  ReplayOnOracle(oracle_net, batch);
  auto outcome = updater.Apply(std::move(batch));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->stats.full_rebuild);
  ExpectSameTree(UpdaterTree(updater), TcTree::Build(oracle_net, budgeted),
                 "fallback rebuild");
}

TEST(IncrementalUpdate, EmptyFlushIsANoop) {
  DatabaseNetwork net = TinyUniform(17);
  TcTree tree = TcTree::Build(net);
  const size_t nodes = tree.num_nodes();
  IndexUpdater updater(std::move(net), std::move(tree), nullptr);
  auto outcome = updater.Flush();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->batches, 0u);
  EXPECT_EQ(outcome->transactions, 0u);
  EXPECT_EQ(outcome->tree_nodes, nodes);
  EXPECT_EQ(updater.snapshot()->num_nodes(), nodes);
}

TEST(IncrementalUpdate, InvalidBatchIsRejectedWithoutMutating) {
  DatabaseNetwork net = TinyUniform(18);
  DatabaseNetwork oracle_net = TinyUniform(18);
  TcTree tree = TcTree::Build(net);
  IndexUpdater updater(std::move(net), std::move(tree), nullptr);
  const size_t edges_before = updater.network().num_edges();

  NetworkUpdate bad;
  NetworkUpdate::TxInsert good_tx;
  good_tx.vertex = 0;
  good_tx.items = Itemset::Single(0);
  bad.transactions.push_back(good_tx);  // valid line first...
  NetworkUpdate::TxInsert bad_tx;
  bad_tx.vertex = static_cast<VertexId>(updater.network().num_vertices());
  bad_tx.items = Itemset::Single(0);
  bad.transactions.push_back(bad_tx);  // ...does not save the batch
  auto outcome = updater.Apply(std::move(bad));
  EXPECT_FALSE(outcome.ok());

  // Whole batch rejected: no transaction landed, the index still equals
  // the oracle of the *unmodified* network.
  EXPECT_EQ(updater.network().num_edges(), edges_before);
  ExpectSameTree(UpdaterTree(updater), TcTree::Build(oracle_net),
                 "tree after rejected batch");

  // Self-loops and unknown items are rejected the same way.
  NetworkUpdate loop;
  loop.edges.push_back({0, 0});
  EXPECT_FALSE(updater.Apply(std::move(loop)).ok());
  NetworkUpdate unknown;
  NetworkUpdate::TxInsert tx;
  tx.vertex = 0;
  tx.items = Itemset::Single(
      static_cast<ItemId>(updater.network().num_items()));
  unknown.transactions.push_back(tx);
  EXPECT_FALSE(updater.Apply(std::move(unknown)).ok());
}

TEST(IncrementalUpdate, EnqueuedBatchesCoalesceIntoOneFlush) {
  DatabaseNetwork net = TinyUniform(19);
  DatabaseNetwork oracle_net = TinyUniform(19);
  TcTree tree = TcTree::Build(net);
  IndexUpdater updater(std::move(net), std::move(tree), nullptr);

  Rng rng(19);
  for (int i = 0; i < 3; ++i) {
    NetworkUpdate u = RandomBatch(rng, updater.network(), 2);
    ReplayOnOracle(oracle_net, u);
    updater.Enqueue(std::move(u));
  }
  EXPECT_EQ(updater.pending(), 3u);
  auto outcome = updater.Flush();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->batches, 3u);
  EXPECT_EQ(updater.pending(), 0u);
  ExpectSameTree(UpdaterTree(updater), TcTree::Build(oracle_net),
                 "coalesced flush");
}

// ---------------------------------------------------------------------
// Serving-layer differential: the updater feeds a live backend through
// ApplyUpdatedSnapshot (targeted cache invalidation, shard-skipping
// rolling swaps) while warm composing caches keep serving. Every answer
// after every batch must equal a cache-less service over a from-scratch
// rebuild.
// ---------------------------------------------------------------------

QueryServiceOptions WarmCacheOptions() {
  QueryServiceOptions o;
  o.num_threads = 1;
  o.cache_bytes = size_t{8} << 20;
  o.cache_composition = true;
  o.cache_admit_derived = true;
  o.cache_compose_min_walk_us = 0;  // engage composition unconditionally
  o.tracing = false;
  return o;
}

QueryServiceOptions OracleOptions() {
  QueryServiceOptions o;
  o.num_threads = 1;
  o.cache_bytes = 0;
  o.tracing = false;
  return o;
}

ServeQuery RandomQuery(const std::vector<ItemId>& items, Rng& rng) {
  static constexpr double kAlphas[] = {0.0, 0.02, 0.05, 0.1, 0.25};
  const size_t len = 1 + rng.NextUint64(4);
  std::vector<ItemId> picked;
  for (size_t i = 0; i < len; ++i) {
    picked.push_back(items[rng.NextUint64(items.size())]);
  }
  return ServeQuery{Itemset(std::move(picked)),
                    kAlphas[rng.NextUint64(std::size(kAlphas))]};
}

void RunBackendDifferential(size_t num_shards, uint64_t seed) {
  DatabaseNetwork updater_net = TinyBkLike(seed);
  DatabaseNetwork oracle_net = TinyBkLike(seed);
  TcTree initial = TcTree::Build(updater_net);

  QueryServiceOptions options = WarmCacheOptions();
  options.num_shards = num_shards;
  auto backend = std::make_unique<QueryService>(
      TcTree::Build(updater_net), updater_net.dictionary(), options);

  IndexUpdater updater(
      std::move(updater_net), std::move(initial),
      [&](std::shared_ptr<const TcTreeSnapshot> snap,
          const std::vector<ItemId>& changed_roots,
          const std::vector<ItemId>& dirty_items) {
        return backend->ApplyUpdatedSnapshot(std::move(snap), changed_roots,
                                             dirty_items);
      });

  Rng rng(seed * 31 + 7);
  const std::vector<ItemId> items = updater.network().ActiveItems();
  ASSERT_FALSE(items.empty());

  for (size_t b = 0; b < 4; ++b) {
    // A fixed query set per round, each asked twice: the second ask and
    // later rounds exercise exact hits, retagged survivors, and covers
    // composed from them.
    std::vector<ServeQuery> queries;
    for (int q = 0; q < 10; ++q) queries.push_back(RandomQuery(items, rng));

    QueryService oracle(TcTree::Build(oracle_net), oracle_net.dictionary(),
                        OracleOptions());
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t q = 0; q < queries.size(); ++q) {
        const auto expected = oracle.Execute(queries[q]);
        const auto actual = backend->Execute(queries[q]);
        ASSERT_NE(actual, nullptr);
        ExpectSameAnswer(*expected, *actual,
                         "round " + std::to_string(b) + " pass " +
                             std::to_string(pass) + " query " +
                             std::to_string(q) + " shards " +
                             std::to_string(num_shards));
      }
    }

    NetworkUpdate batch = RandomBatch(rng, updater.network(), 4);
    ReplayOnOracle(oracle_net, batch);
    auto outcome = updater.Apply(std::move(batch));
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_LE(outcome->shards_swapped, num_shards);

    // Post-swap, pre-warm: the same queries again (stale survivors or a
    // missed invalidation would surface right here), then verify the
    // oracle of the *new* network agrees.
    QueryService fresh(TcTree::Build(oracle_net), oracle_net.dictionary(),
                       OracleOptions());
    for (size_t q = 0; q < queries.size(); ++q) {
      const auto expected = fresh.Execute(queries[q]);
      const auto actual = backend->Execute(queries[q]);
      ASSERT_NE(actual, nullptr);
      ExpectSameAnswer(*expected, *actual,
                       "post-update round " + std::to_string(b) + " query " +
                           std::to_string(q) + " shards " +
                           std::to_string(num_shards));
    }
  }
}

TEST(IncrementalUpdateServing, WarmCacheParityUnsharded) {
  RunBackendDifferential(/*num_shards=*/1, /*seed=*/21);
}

TEST(IncrementalUpdateServing, WarmCacheParityTwoShards) {
  RunBackendDifferential(/*num_shards=*/2, /*seed=*/22);
}

TEST(IncrementalUpdateServing, WarmCacheParityEightShards) {
  RunBackendDifferential(/*num_shards=*/8, /*seed=*/23);
}

// An update whose dirty set misses a shard must leave that shard's
// snapshot untouched (rolling swap skips it) and its cache intact.
TEST(IncrementalUpdateServing, UntouchedShardsSkipTheSwap) {
  DatabaseNetwork net = TinyBkLike(24);
  TcTree initial = TcTree::Build(net);
  QueryServiceOptions options = WarmCacheOptions();
  options.num_shards = 8;
  QueryService backend(TcTree::Build(net), net.dictionary(), options);
  IndexUpdater updater(
      std::move(net), std::move(initial),
      [&](std::shared_ptr<const TcTreeSnapshot> snap,
          const std::vector<ItemId>& roots,
          const std::vector<ItemId>& dirty) {
        return backend.ApplyUpdatedSnapshot(std::move(snap), roots, dirty);
      });

  // A single one-item transaction dirties only the items active at one
  // vertex — with 8 shards, usually a strict subset of the shards.
  NetworkUpdate u;
  NetworkUpdate::TxInsert tx;
  tx.vertex = 0;
  tx.items = Itemset::Single(0);
  u.transactions.push_back(tx);

  auto outcome = updater.Apply(std::move(u));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(backend.updates_applied(), 1u);
  EXPECT_LE(outcome->shards_swapped, 8u);
  EXPECT_EQ(outcome->changed_roots == 0, outcome->shards_swapped == 0);
}

}  // namespace
}  // namespace tcf
