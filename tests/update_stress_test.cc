// Concurrency stress for incremental maintenance under live traffic:
// 16 query threads hammer a warm composing cache while one updater
// thread applies randomized update batches through ApplyUpdatedSnapshot
// (targeted ResultCache invalidation + rolling shard swaps). The test
// is primarily a race detector workload — it is part of the TSan CI
// leg — but it also proves the end state: once the readers drain, every
// answer from the hammered backend equals a cache-less service over a
// from-scratch rebuild of the accumulated network.
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/tc_tree.h"
#include "core/tc_tree_update.h"
#include "gen/checkin_generator.h"
#include "net/database_network.h"
#include "serve/query_backend.h"
#include "serve/query_service.h"
#include "test_util.h"
#include "tx/itemset.h"
#include "util/rng.h"

namespace tcf {
namespace {

DatabaseNetwork StressNet(uint64_t seed) {
  CheckinParams p;
  p.num_users = 40;
  p.num_locations = 12;
  p.friends_k = 3;
  p.periods_per_user = 8;
  p.favorites_per_user = 4;
  p.seed = seed;
  return GenerateCheckinNetwork(p);
}

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

QueryServiceOptions WarmCacheOptions() {
  QueryServiceOptions o;
  o.num_threads = 2;
  o.cache_bytes = size_t{8} << 20;
  o.cache_composition = true;
  o.cache_admit_derived = true;
  o.cache_compose_min_walk_us = 0;
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

/// 16 readers spin random queries against `backend` while the calling
/// thread applies `batches` randomized update batches back to back.
/// Afterwards the backend must agree, answer for answer, with a fresh
/// cache-less rebuild of the mutated network.
void RunStress(size_t num_shards, uint64_t seed, size_t batches) {
  DatabaseNetwork updater_net = StressNet(seed);
  DatabaseNetwork oracle_net = StressNet(seed);
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

  // Updates only add items, so the pre-update active set stays valid
  // for query generation throughout.
  const std::vector<ItemId> items = updater.network().ActiveItems();
  ASSERT_FALSE(items.empty());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> readers;
  readers.reserve(16);
  for (int t = 0; t < 16; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(seed * 1009 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const ServeQuery q = RandomQuery(items, rng);
        QueryBackend::Result r = backend->Execute(q);
        if (r == nullptr) {
          ADD_FAILURE() << "Execute returned null under churn";
          return;
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(seed * 7 + 3);
  for (size_t b = 0; b < batches; ++b) {
    NetworkUpdate batch = RandomBatch(rng, updater.network(), 3);
    for (const NetworkUpdate::TxInsert& tx : batch.transactions) {
      ASSERT_TRUE(oracle_net.AddTransaction(tx.vertex, tx.items).ok());
    }
    for (const Edge& e : batch.edges) {
      ASSERT_TRUE(oracle_net.AddEdge(e.u, e.v).ok());
    }
    auto outcome = updater.Apply(std::move(batch));
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(answered.load(std::memory_order_relaxed), 0u);

  // Final differential: hammered backend (warm survivor cache and all)
  // vs a cache-less oracle over a from-scratch rebuild.
  QueryService oracle(TcTree::Build(oracle_net), oracle_net.dictionary(),
                      OracleOptions());
  Rng qrng(seed + 99);
  for (int i = 0; i < 50; ++i) {
    const ServeQuery q = RandomQuery(items, qrng);
    const auto got = backend->Execute(q);
    const auto want = oracle.Execute(q);
    SCOPED_TRACE("post-stress query " + std::to_string(i));
    ASSERT_EQ(got->trusses.size(), want->trusses.size());
    for (size_t j = 0; j < want->trusses.size(); ++j) {
      testing::ExpectSameTruss(got->trusses[j], want->trusses[j],
                               "truss " + std::to_string(j));
    }
  }
}

TEST(UpdateStress, UnshardedSixteenReadersOneUpdater) {
  RunStress(/*num_shards=*/1, /*seed=*/21, /*batches=*/8);
}

TEST(UpdateStress, ShardedTwoSixteenReadersOneUpdater) {
  RunStress(/*num_shards=*/2, /*seed=*/22, /*batches=*/8);
}

TEST(UpdateStress, ShardedEightSixteenReadersOneUpdater) {
  RunStress(/*num_shards=*/8, /*seed=*/23, /*batches=*/6);
}

}  // namespace
}  // namespace tcf
