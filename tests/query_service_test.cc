#include "serve/query_service.h"

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <thread>
#include <vector>

#include "core/partition.h"
#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "core/tcfi_format.h"
#include "test_util.h"
#include "util/rng.h"

namespace tcf {
namespace {

using testing::ExpectSameAnswer;
using testing::MakeFigureOneNetwork;
using testing::MakeRandomNetwork;
using testing::RandomNetOptions;
using testing::TrussMatch;
using testing::WalkCounters;

/// A deterministic mixed workload over the network's items.
std::vector<ServeQuery> MakeWorkload(const DatabaseNetwork& net, size_t n,
                                     uint64_t seed) {
  const std::vector<ItemId> items = net.ActiveItems();
  Rng rng(seed);
  std::vector<ServeQuery> workload;
  for (size_t i = 0; i < n; ++i) {
    const size_t len = 1 + rng.NextUint64(3);
    std::vector<ItemId> subset;
    for (size_t j = 0; j < len; ++j) {
      subset.push_back(items[rng.NextUint64(items.size())]);
    }
    const double alpha = 0.05 * static_cast<double>(rng.NextUint64(6));
    workload.push_back({Itemset(std::move(subset)), alpha});
  }
  return workload;
}

TEST(QueryServiceTest, BatchMatchesSerialQueryTcTree) {
  DatabaseNetwork net = MakeRandomNetwork({.seed = 11});
  TcTree tree = TcTree::Build(net);
  const std::vector<ServeQuery> workload = MakeWorkload(net, 200, 5);

  QueryService service(tree, net.dictionary(), {.num_threads = 4});
  const auto results = service.ExecuteBatch(workload);
  ASSERT_EQ(results.size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_NE(results[i], nullptr);
    const TcTreeQueryResult expected =
        QueryTcTree(tree, workload[i].items, workload[i].alpha);
    ExpectSameAnswer(expected, *results[i],
                     "query " + workload[i].items.ToString(),
                     WalkCounters::kIgnore, TrussMatch::kIdentical);
  }
}

TEST(QueryServiceTest, CacheHitReturnsIdenticalResult) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});

  const ServeQuery query{Itemset{0}, 0.1};
  const auto first = service.Execute(query);
  const auto second = service.Execute(query);
  EXPECT_EQ(first.get(), second.get());  // same shared object, no copy
  EXPECT_EQ(service.cache_stats().hits, 1u);

  // An alpha that quantizes to the same grid point hits the same entry.
  const auto third = service.Execute({Itemset{0}, 0.1 + 1e-12});
  EXPECT_EQ(first.get(), third.get());
  EXPECT_EQ(service.cache_stats().hits, 2u);

  ExpectSameAnswer(QueryTcTree(tree, query.items, query.alpha), *second,
                   "cached",
                   WalkCounters::kIgnore, TrussMatch::kIdentical);
}

TEST(QueryServiceTest, DisabledCacheStillAnswersCorrectly) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {.cache_bytes = 0});

  const ServeQuery query{Itemset{0}, 0.0};
  const auto first = service.Execute(query);
  const auto second = service.Execute(query);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(service.cache_stats().hits, 0u);
  ExpectSameAnswer(*first, *second, "recomputed",
                   WalkCounters::kIgnore, TrussMatch::kIdentical);
}

TEST(QueryServiceTest, ConcurrentExecuteIsRaceFree) {
  DatabaseNetwork net = MakeRandomNetwork({.num_vertices = 16, .seed = 23});
  TcTree tree = TcTree::Build(net);
  const std::vector<ServeQuery> workload = MakeWorkload(net, 64, 9);

  std::vector<TcTreeQueryResult> expected;
  for (const ServeQuery& q : workload) {
    expected.push_back(QueryTcTree(tree, q.items, q.alpha));
  }

  // 8 threads hammer Execute over the same small query set, so cache
  // hits, misses and racing inserts of the same key all occur.
  QueryService service(tree, net.dictionary(), {.num_threads = 4});
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 300; ++i) {
        const size_t pick = rng.NextUint64(workload.size());
        const auto result = service.Execute(workload[pick]);
        ASSERT_NE(result, nullptr);
        ExpectSameAnswer(expected[pick], *result,
                         "thread " + std::to_string(t),
                         WalkCounters::kIgnore, TrussMatch::kIdentical);
      }
    });
  }
  for (auto& th : threads) th.join();
  const ServeReport report = service.Report();
  EXPECT_EQ(report.queries, 8u * 300u);
  EXPECT_GT(report.cache.HitRate(), 0.5);  // 64 keys, 2400 lookups
}

TEST(QueryServiceTest, ConcurrentBatchesMatchSerial) {
  DatabaseNetwork net = MakeRandomNetwork({.seed = 31});
  TcTree tree = TcTree::Build(net);
  const std::vector<ServeQuery> workload = MakeWorkload(net, 100, 13);

  QueryService service(tree, net.dictionary(), {.num_threads = 4});
  std::vector<std::vector<QueryService::Result>> all(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&, t] { all[t] = service.ExecuteBatch(workload); });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(all[t].size(), workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      ExpectSameAnswer(QueryTcTree(tree, workload[i].items, workload[i].alpha),
                       *all[t][i], "batch " + std::to_string(t),
                       WalkCounters::kIgnore, TrussMatch::kIdentical);
    }
  }
}

TEST(QueryServiceTest, SwapSnapshotInvalidatesCache) {
  DatabaseNetwork net_a = MakeFigureOneNetwork();
  DatabaseNetwork net_b = MakeRandomNetwork({.seed = 47});
  TcTree tree_a = TcTree::Build(net_a);
  TcTree tree_b = TcTree::Build(net_b);

  QueryService service(tree_a, net_a.dictionary(), {});
  const ServeQuery query{Itemset{0}, 0.0};
  const auto before = service.Execute(query);
  ExpectSameAnswer(QueryTcTree(tree_a, query.items, query.alpha), *before,
                   "pre-swap",
                   WalkCounters::kIgnore, TrussMatch::kIdentical);

  service.SwapSnapshot(tree_b);
  EXPECT_EQ(service.cache_stats().invalidations, 1u);
  EXPECT_EQ(service.cache_stats().entries, 0u);

  const auto after = service.Execute(query);
  ExpectSameAnswer(QueryTcTree(tree_b, query.items, query.alpha), *after,
                   "post-swap",
                   WalkCounters::kIgnore, TrussMatch::kIdentical);
  // The new answer is cached again.
  EXPECT_EQ(service.Execute(query).get(), after.get());
}

TEST(QueryServiceTest, ShardReloadKeepsOtherShardsCacheEntries) {
  // The sharded counterpart of SwapSnapshotInvalidatesCache: with two
  // shards, reloading shard B invalidates only B's cache — a query
  // owned by shard A keeps hitting its cached entry — while a whole
  // rolling SwapSnapshot invalidates every shard.
  DatabaseNetwork net = MakeRandomNetwork({.num_items = 8, .seed = 33});
  TcTree tree = TcTree::Build(net);
  QueryServiceOptions options;
  options.num_threads = 1;
  options.num_shards = 2;
  options.tracing = false;
  QueryService service(tree, net.dictionary(), options);

  // One active item per shard (a single-item query goes straight to its
  // owning shard, touching exactly one shard cache).
  ItemId item_a = 0, item_b = 0;
  bool have_a = false, have_b = false;
  for (ItemId item : net.ActiveItems()) {
    if (service.ShardOfItem(item) == 0 && !have_a) {
      item_a = item;
      have_a = true;
    } else if (service.ShardOfItem(item) == 1 && !have_b) {
      item_b = item;
      have_b = true;
    }
  }
  ASSERT_TRUE(have_a && have_b) << "fixture has items on one shard only";
  const ServeQuery query_a{Itemset::Single(item_a), 0.0};
  const ServeQuery query_b{Itemset::Single(item_b), 0.0};

  const auto first_a = service.Execute(query_a);
  const auto first_b = service.Execute(query_b);
  // Both entries are warm: repeats serve the shared cached object.
  EXPECT_EQ(service.Execute(query_a).get(), first_a.get());
  EXPECT_EQ(service.Execute(query_b).get(), first_b.get());

  // Reload only shard B (same index content, fresh snapshot).
  HashShardPartitioner partitioner;
  std::vector<TcTree> parts = PartitionTcTree(tree, partitioner, 2);
  service.SwapShardSnapshot(
      1, std::make_shared<const TcTreeSnapshot>(std::move(parts[1])));
  EXPECT_EQ(service.cache_stats().invalidations, 1u);

  // Shard A's entry survived the foreign reload and still hits; shard
  // B recomputes (identical answer on the identical index, but a fresh
  // object — the old entry is gone).
  EXPECT_EQ(service.Execute(query_a).get(), first_a.get());
  const auto after_b = service.Execute(query_b);
  EXPECT_NE(after_b.get(), first_b.get());
  ExpectSameAnswer(*first_b, *after_b, "shard B answer after its reload",
                   WalkCounters::kIgnore, TrussMatch::kIdentical);

  // A full rolling swap rolls every shard: all caches invalidated.
  const auto before_roll = service.cache_stats();
  service.SwapSnapshot(tree);
  const auto after_roll = service.cache_stats();
  EXPECT_EQ(after_roll.invalidations, before_roll.invalidations + 2);
  EXPECT_EQ(after_roll.entries, 0u);
  EXPECT_NE(service.Execute(query_a).get(), first_a.get());
  ExpectSameAnswer(*first_a, *service.Execute(query_a), "post-roll shard A",
                   WalkCounters::kIgnore, TrussMatch::kIdentical);
}

TEST(QueryServiceTest, ComposedAnswersMatchColdQueries) {
  // Property test for the subset-composable cache: a random overlapping
  // workload (shared hot items, rare exact repeats) must produce answers
  // identical to serial QueryTcTree even though most of them are
  // composed from cached sub-pattern results.
  DatabaseNetwork net = MakeRandomNetwork({.num_items = 6, .seed = 71});
  TcTree tree = TcTree::Build(net);
  const std::vector<ItemId> items = net.ActiveItems();
  Rng rng(29);

  // Gate floor 0: this network's walks are microseconds, and the test
  // targets composition correctness, not the work-aware engagement.
  QueryService service(tree, net.dictionary(),
                       {.num_threads = 2, .cache_compose_min_walk_us = 0});
  for (int i = 0; i < 400; ++i) {
    std::vector<ItemId> subset;
    const size_t len = 2 + rng.NextUint64(items.size() - 1);
    for (size_t j = 0; j < len; ++j) {
      subset.push_back(items[rng.NextUint64(items.size())]);
    }
    const ServeQuery query{Itemset(std::move(subset)),
                           0.05 * static_cast<double>(rng.NextUint64(4))};
    const auto result = service.Execute(query);
    ASSERT_NE(result, nullptr);
    ExpectSameAnswer(QueryTcTree(tree, query.items, query.alpha), *result,
                     "composed " + query.items.ToString(),
                     WalkCounters::kIgnore, TrussMatch::kIdentical);
  }
  // The overlap guarantees the composition path actually ran.
  const ResultCacheStats stats = service.cache_stats();
  EXPECT_GT(stats.partial_hits, 0u);
  EXPECT_GT(stats.composed_queries, 0u);
  EXPECT_GE(stats.partial_hits, stats.composed_queries);
}

TEST(QueryServiceTest, DerivedSubsetsServeFollowUpQueriesExactly) {
  DatabaseNetwork net = MakeRandomNetwork({.num_items = 5, .seed = 13});
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(),
                       {.cache_compose_min_walk_us = 0});

  // Answering {0,1,2} derives and admits {0,1}, {0,2}, {1,2}: the
  // follow-up sub-queries are exact hits that never touch the tree,
  // and their payloads equal a cold walk's.
  const auto full = service.Execute({Itemset{0, 1, 2}, 0.0});
  ASSERT_NE(full, nullptr);
  const ResultCacheStats after_first = service.cache_stats();
  EXPECT_GE(after_first.inserts, 2u);  // the query + admitted deriveds

  const auto sub = service.Execute({Itemset{0, 1}, 0.0});
  ExpectSameAnswer(QueryTcTree(tree, Itemset{0, 1}, 0.0), *sub, "derived",
                   WalkCounters::kIgnore, TrussMatch::kIdentical);
  EXPECT_EQ(service.cache_stats().hits, after_first.hits + 1);
}

TEST(QueryServiceTest, WorkAwareGateKeepsPartialReuseOffForCheapWalks) {
  // With an unreachably high engagement floor, the service behaves
  // exactly-only — no probes, no derived admissions — even though
  // composition is enabled and the workload overlaps.
  DatabaseNetwork net = MakeRandomNetwork({.num_items = 5, .seed = 13});
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(),
                       {.cache_compose_min_walk_us = 1e12});

  service.Execute({Itemset{0, 1}, 0.0});
  const auto result = service.Execute({Itemset{0, 1, 2}, 0.0});
  ExpectSameAnswer(QueryTcTree(tree, Itemset{0, 1, 2}, 0.0), *result,
                   "gated",
                   WalkCounters::kIgnore, TrussMatch::kIdentical);
  const ResultCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.composed_queries, 0u);
  EXPECT_EQ(stats.partial_hits, 0u);
  EXPECT_EQ(stats.inserts, 2u);  // no derived admissions
}

TEST(QueryServiceTest, ExactOnlyModeDisablesPartialReuse) {
  DatabaseNetwork net = MakeRandomNetwork({.num_items = 5, .seed = 13});
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(),
                       {.cache_composition = false,
                        .cache_admit_derived = false});

  service.Execute({Itemset{0, 1}, 0.0});
  service.Execute({Itemset{0, 1, 2}, 0.0});
  const ResultCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.partial_hits, 0u);
  EXPECT_EQ(stats.composed_queries, 0u);
  EXPECT_EQ(stats.inserts, 2u);  // no derived admissions either
}

TEST(QueryServiceTest, ShapedQueriesNeverCompose) {
  // Result-shaping knobs make cached answers incomplete; the service
  // must fall back to exact-only caching rather than compose from them.
  DatabaseNetwork net = MakeRandomNetwork({.num_items = 5, .seed = 13});
  TcTree tree = TcTree::Build(net);
  QueryServiceOptions options;
  options.cache_compose_min_walk_us = 0;  // shaping, not the gate, blocks
  options.query_options.max_results = 2;
  QueryService service(tree, net.dictionary(), options);

  service.Execute({Itemset{0, 1}, 0.0});
  const auto result = service.Execute({Itemset{0, 1, 2}, 0.0});
  ExpectSameAnswer(
       QueryTcTree(tree, Itemset{0, 1, 2}, 0.0, options.query_options),
       *result, "shaped",
                   WalkCounters::kIgnore, TrussMatch::kIdentical);
  const ResultCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.composed_queries, 0u);
}

TEST(QueryServiceTest, SwapSnapshotDropsComposedAndDerivedEntries) {
  // RELOAD semantics: every entry — exact, composed, or derived — is
  // dropped on a snapshot swap, and post-swap answers (composed ones
  // included) come from the new tree only.
  DatabaseNetwork net_a = MakeRandomNetwork({.num_items = 5, .seed = 61});
  DatabaseNetwork net_b = MakeRandomNetwork(
      {.num_vertices = 16, .edge_prob = 0.5, .num_items = 5, .seed = 62});
  TcTree tree_a = TcTree::Build(net_a);
  TcTree tree_b = TcTree::Build(net_b);

  QueryService service(tree_a, net_a.dictionary(),
                       {.cache_compose_min_walk_us = 0});
  service.Execute({Itemset{0, 1}, 0.0});
  service.Execute({Itemset{0, 1, 2}, 0.0});  // composes + derives
  ASSERT_GT(service.cache_stats().entries, 2u);

  service.SwapSnapshot(tree_b);
  EXPECT_EQ(service.cache_stats().entries, 0u);

  // Re-running the same sequence against the new snapshot composes from
  // fresh entries and matches tree_b's cold answers exactly.
  service.Execute({Itemset{0, 1}, 0.0});
  const auto after = service.Execute({Itemset{0, 1, 2}, 0.0});
  ExpectSameAnswer(QueryTcTree(tree_b, Itemset{0, 1, 2}, 0.0), *after,
                   "post-swap composed",
                   WalkCounters::kIgnore, TrussMatch::kIdentical);
}

TEST(QueryServiceTest, OpenLoadsPersistedIndex) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  const std::string path = ::testing::TempDir() + "/query_service_test.idx";
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());

  auto service = QueryService::Open(path, net.dictionary(), {});
  ASSERT_TRUE(service.ok());
  // One shard serves the mapped file as is: no partition, no copy.
  EXPECT_EQ((*service)->num_shards(), 1u);
  EXPECT_TRUE((*service)->snapshot()->mapped());
  const ServeQuery query{Itemset{0}, 0.1};
  ExpectSameAnswer(QueryTcTree(tree, query.items, query.alpha),
                   *(*service)->Execute(query), "loaded index",
                   WalkCounters::kIgnore, TrussMatch::kIdentical);
  std::remove(path.c_str());

  EXPECT_FALSE(QueryService::Open(path + ".missing", net.dictionary(), {})
                   .ok());
}

TEST(QueryServiceTest, ParseQueryLine) {
  DatabaseNetwork net = MakeRandomNetwork({.num_items = 5, .seed = 3});
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});

  auto q = service.ParseQueryLine("0.25; i1, i3");
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(q->alpha, 0.25);
  EXPECT_EQ(q->items, (Itemset{1, 3}));

  // `*` (or nothing after ';') selects every dictionary item.
  auto all = service.ParseQueryLine("0;*");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->items.size(), net.dictionary().size());
  auto empty = service.ParseQueryLine("0.5;");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->items.size(), net.dictionary().size());

  EXPECT_FALSE(service.ParseQueryLine("no-semicolon").ok());
  EXPECT_FALSE(service.ParseQueryLine("abc;i1").ok());
  EXPECT_FALSE(service.ParseQueryLine("0.1;nosuchitem").ok());
}

TEST(QueryServiceTest, ParseQueryLineHardening) {
  DatabaseNetwork net = MakeRandomNetwork({.num_items = 5, .seed = 3});
  const ItemDictionary& dict = net.dictionary();

  // Alphas that strtod happily accepts but no cohesion threshold can be.
  EXPECT_TRUE(ParseServeQuery(dict, "nan;i1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseServeQuery(dict, "-nan;i1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseServeQuery(dict, "-0.5;i1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseServeQuery(dict, "inf;i1").status().IsOutOfRange());
  EXPECT_TRUE(ParseServeQuery(dict, "1e999;i1").status().IsOutOfRange());
  EXPECT_TRUE(ParseServeQuery(dict, "5e9;i1").status().IsOutOfRange());
  // The fixed-point limit itself is still fine.
  EXPECT_TRUE(ParseServeQuery(dict, "4294967296;i1").ok());
  // -0 quantizes to the 0 grid point; allowed.
  EXPECT_TRUE(ParseServeQuery(dict, "-0.0;i1").ok());

  // Trailing garbage is rejected wherever it appears.
  EXPECT_TRUE(ParseServeQuery(dict, "0.1x;i1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseServeQuery(dict, "0.1 0.2;i1")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseServeQuery(dict, "0.1;i1,,i2")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseServeQuery(dict, "0.1;i1,").status().IsInvalidArgument());

  // Unknown items are NotFound (a different user mistake than syntax),
  // and the message points at the offending column.
  const Status unknown = ParseServeQuery(dict, "0.1;i1,bogus").status();
  EXPECT_TRUE(unknown.IsNotFound());
  EXPECT_NE(unknown.message().find("col 8"), std::string::npos) << unknown;
  EXPECT_NE(unknown.message().find("bogus"), std::string::npos) << unknown;

  // Every hardened rejection carries column context.
  for (const char* line :
       {"nan;i1", "-1;i1", "1e999;i1", "0.1x;i1", "0.1;i1,,i2", "nosemi"}) {
    const Status s = ParseServeQuery(dict, line).status();
    ASSERT_FALSE(s.ok()) << line;
    EXPECT_NE(s.message().find("col "), std::string::npos)
        << "'" << line << "' -> " << s;
  }
}

#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
/// Bytes the main arena has handed out, heap chunks and mmapped ones.
size_t AllocatedBytes() {
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
}
#define TCF_HAVE_MALLINFO2 1
#endif

// A long-lived server keeps its memory flat: answering a query records
// into fixed-size instruments, never a per-query sample, so the
// footprint after 10N answered queries is the footprint after N.
TEST(QueryServiceTest, FootprintStaysFlatAcrossAnsweredQueries) {
#ifndef TCF_HAVE_MALLINFO2
  GTEST_SKIP() << "needs glibc's mallinfo2";
#else
  DatabaseNetwork net = MakeFigureOneNetwork();
  QueryServiceOptions options;
  options.num_threads = 1;
  options.cache_bytes = 0;
  QueryService service(TcTree::Build(net), net.dictionary(), options);
  const std::vector<ServeQuery> workload = MakeWorkload(net, 64, 3);
  constexpr size_t kN = 10000;
  auto answer = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      (void)service.Execute(workload[i % workload.size()]);
    }
  };
  answer(kN);
  const size_t after_n = AllocatedBytes();
  answer(9 * kN);
  const size_t after_10n = AllocatedBytes();
  ASSERT_EQ(service.Report().queries, 10 * kN);
  EXPECT_LE(after_10n, after_n + 16 * 1024)
      << "grew " << (after_10n - after_n) << " bytes over " << 9 * kN
      << " answered queries";
#endif
}

}  // namespace
}  // namespace tcf
