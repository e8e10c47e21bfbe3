#ifndef TCF_SERVE_SHARD_ROUTER_H_
#define TCF_SERVE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/partition.h"
#include "core/tc_tree.h"
#include "core/tc_tree_snapshot.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/query_backend.h"
#include "serve/query_service.h"
#include "serve/result_cache.h"
#include "tx/item_dictionary.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tcf {

/// \brief Scatter-gather query service over N item-space shards
/// (ROADMAP "Distributed serving", in-process step).
///
/// Construction splits one built TC-Tree with PartitionTcTree: every
/// pattern lands on the shard of its minimum item, so per-shard answer
/// sets are disjoint and a query only ever needs the shards that own
/// one of its items. Each shard is a full QueryService — its own
/// epoch-safe snapshot, snapshot-tagged result cache (1/N of the
/// configured bytes), compose gate, metrics registry, and slow log —
/// so a shard's reload invalidates that shard's cache only.
///
/// Execute scatters the *whole* query to every relevant shard (the
/// shard tree restricts the walk to owned patterns naturally) and
/// k-way-merges the per-shard trusses on (pattern length,
/// lexicographic items) — exactly the single-tree BFS retrieval order,
/// because BFS retrieval at each depth is lexicographic in the
/// patterns (children commit item-ascending per parent; parents at the
/// same depth already order lexicographically by induction). The
/// merged answer is field-for-field identical to the unsharded one
/// (property-tested in tests/shard_router_test.cc); with `max_results`
/// set, the merged truss list and retrieved_nodes stay exact while
/// visited/pruned counters may exceed the single-tree walk's (each
/// shard walks until its own budget's worth of answers).
///
/// SwapSnapshot is a *rolling* reload: the new tree is partitioned and
/// shards swap one at a time — every shard not mid-swap keeps serving
/// its current snapshot and cache, so there is no global pause and no
/// answer ever mixes two snapshots (per-shard answers are composed
/// only per query, and each shard's own epoch check already rejects
/// stale inserts).
class ShardedQueryService : public QueryBackend {
 public:
  /// Partitions `tree` into `num_shards` shards. `options` configures
  /// the router (batch pool width, tracing, slow log) and each shard
  /// (cache bytes are divided by the shard count; per-shard batch
  /// pools collapse to one thread — the router's pool provides the
  /// fan-out). A null `partitioner` uses HashShardPartitioner.
  ShardedQueryService(TcTree tree, ItemDictionary dictionary,
                      size_t num_shards,
                      const QueryServiceOptions& options = {},
                      std::unique_ptr<ShardPartitioner> partitioner = nullptr);

  /// Serves pre-partitioned shard snapshots (one per shard, ascending
  /// shard id — e.g. mmap'ed TCFI slice files written by
  /// SaveTcfiShardSlices). `parts` must be non-empty and partitioned by
  /// `partitioner` (null = HashShardPartitioner, the slice writer's
  /// choice), or routing would miss patterns.
  ShardedQueryService(std::vector<TcTreeSnapshot> parts,
                      ItemDictionary dictionary,
                      const QueryServiceOptions& options = {},
                      std::unique_ptr<ShardPartitioner> partitioner = nullptr);

  /// Opens the `num_shards` TCFI slice files `TcfiSlicePath(base, s,
  /// num_shards)` as zero-copy mapped shard snapshots. Every slice must
  /// map cleanly and carry matching shard metadata (shard_id == s,
  /// num_shards) or the whole open fails — no half-sharded service.
  static StatusOr<std::unique_ptr<ShardedQueryService>> OpenSlices(
      const std::string& base, ItemDictionary dictionary, size_t num_shards,
      const QueryServiceOptions& options = {});

  ShardedQueryService(const ShardedQueryService&) = delete;
  ShardedQueryService& operator=(const ShardedQueryService&) = delete;

  using QueryBackend::Execute;
  Result Execute(const ServeQuery& query, QueryTrace* trace) override;
  std::vector<Result> ExecuteBatch(
      const std::vector<ServeQuery>& queries) override;

  StatusOr<ServeQuery> ParseQueryLine(std::string_view line) const override {
    return ParseServeQuery(dictionary_, line);
  }

  /// Rolling reload: partitions `tree` and swaps shard snapshots one at
  /// a time (ascending shard id). Shards not mid-swap keep serving.
  void SwapSnapshot(TcTree tree) override;

  /// RELOAD from disk. When all N slice files `TcfiSlicePath(path, s,
  /// N)` are present, each shard swaps its own mapped slice (rolling,
  /// zero-copy, no partitioning work) — every slice is mapped and
  /// validated *before* the first swap, so a corrupt slice never leaves
  /// the service half-rolled. Otherwise falls back to the base
  /// behavior: map/materialize the whole tree at `path` and do a
  /// rolling partitioned swap.
  StatusOr<size_t> ReloadFromFile(const std::string& path) override;

  /// Swaps a single shard's snapshot (`shard_tree` must be that shard's
  /// partition — built by PartitionTcTree or BuildShardTree with the
  /// same partitioner). Only this shard's cache is invalidated; the
  /// other shards' cached answers keep serving. This is the unit the
  /// rolling SwapSnapshot iterates, exposed for per-shard operational
  /// reloads and the reload-survival tests.
  void SwapShardSnapshot(size_t shard, TcTree shard_tree);
  /// Same, for a pre-built snapshot (e.g. a mapped TCFI slice).
  void SwapShardSnapshot(size_t shard, TcTreeSnapshot shard_snapshot);

  /// Shard-aware incremental swap (core/tc_tree_update.h): partitions
  /// the updated tree, then rolls *only* the shards owning a changed
  /// layer-1 root — every pattern lives on the shard of its minimum
  /// item, so a shard owning no changed root has a provably identical
  /// partition and keeps both its snapshot and its whole cache. Swapped
  /// shards invalidate just the entries intersecting `dirty_items`
  /// (QueryService::ApplyUpdatedSnapshot). Returns the number of shards
  /// swapped.
  size_t ApplyUpdatedSnapshot(TcTree tree,
                              const std::vector<ItemId>& changed_roots,
                              const std::vector<ItemId>& dirty_items) override;

  /// Streaming updates applied so far (ApplyUpdatedSnapshot calls).
  uint64_t updates_applied() const {
    return updates_applied_.load(std::memory_order_relaxed);
  }

  const ItemDictionary& dictionary() const override { return dictionary_; }
  size_t num_threads() const override { return pool_.num_threads(); }

  /// Field-wise sum over the per-shard caches.
  ResultCacheStats cache_stats() const override;
  ServeReport Report() const override;

  MetricsRegistry& metrics() override { return metrics_; }
  const SlowQueryLog& slow_log() const override {
    return instruments_.slow_log();
  }
  bool tracing_enabled() const override { return options_.tracing; }

  size_t num_shards() const { return shards_.size(); }
  /// The shard owning `item`'s layer-1 subtree.
  size_t ShardOfItem(ItemId item) const {
    return partitioner_->ShardOf(item, shards_.size());
  }
  const ShardPartitioner& partitioner() const { return *partitioner_; }
  /// The underlying per-shard service (tests, diagnostics).
  const QueryService& shard(size_t s) const { return *shards_[s]; }

 private:
  /// Everything the delegating constructors must hand the primary one
  /// in a single argument: the partitioner is *used* to cut the tree
  /// and then *owned* by the service, and bundling both into one value
  /// keeps that free of argument-evaluation-order traps.
  struct ShardedInit {
    std::vector<TcTreeSnapshot> parts;
    std::unique_ptr<ShardPartitioner> partitioner;
  };
  static ShardedInit MakeInit(TcTree tree, size_t num_shards,
                              std::unique_ptr<ShardPartitioner> partitioner);

  ShardedQueryService(ShardedInit init, ItemDictionary dictionary,
                      const QueryServiceOptions& options);

  /// Ascending ids of the shards that can own part of `items`'s answer
  /// (the shard of some item of the query). Empty queries probe shard 0
  /// so Execute still returns the usual empty result.
  std::vector<size_t> RelevantShards(const Itemset& items) const;

  /// Merges disjoint per-shard results into single-tree BFS retrieval
  /// order; truncates at `max_results` when nonzero. Checks `deadline`
  /// every kDeadlineCheckStride merged trusses (the k-way merge is the
  /// router's own long loop); a part that already expired, or an expiry
  /// mid-merge, marks the merged result `deadline_exceeded`.
  static std::shared_ptr<TcTreeQueryResult> MergeShardResults(
      const std::vector<Result>& parts, size_t max_results,
      const Deadline& deadline);

  // The registry is declared first (destroyed last): its callback
  // instruments read the shard caches at scrape time.
  MetricsRegistry metrics_;
  ItemDictionary dictionary_;
  QueryServiceOptions options_;
  QueryInstruments instruments_;
  std::unique_ptr<ShardPartitioner> partitioner_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<QueryService>> shards_;
  std::atomic<uint64_t> updates_applied_{0};  // incremental swaps so far

  // Router-level instruments (the shard services keep their own
  // registries; TcpServer scrapes only this one).
  Counter& shard_queries_total_;
  Histogram& fanout_;
  Gauge& shard_reload_ms_;
  std::vector<Counter*> per_shard_queries_;
  std::vector<Gauge*> per_shard_reload_ms_;
};

}  // namespace tcf

#endif  // TCF_SERVE_SHARD_ROUTER_H_
