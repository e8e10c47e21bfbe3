#ifndef TCF_SERVE_QUERY_SERVICE_H_
#define TCF_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/partition.h"
#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "core/tc_tree_snapshot.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/query_backend.h"
#include "serve/result_cache.h"
#include "serve/serve_stats.h"
#include "tx/item_dictionary.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tcf {

/// Configuration of a QueryService.
struct QueryServiceOptions {
  /// Workers for ExecuteBatch fan-out (0 = hardware threads).
  size_t num_threads = 0;
  /// Result-cache capacity in bytes (0 disables caching).
  size_t cache_bytes = size_t{64} << 20;
  /// Result-cache shards (see ResultCacheOptions::num_shards).
  size_t cache_shards = 16;
  /// When true, a miss for `(q, α)` probes the cache for sub-pattern
  /// covers (ResultCache::LookupSubsets) and composes the answer from
  /// them plus a residual tree probe (ComposeTcTreeQuery) instead of
  /// walking the whole tree. Only engaged while the result-shaping
  /// query_options knobs are at their defaults — composition needs
  /// complete answers. False restores the exact-only PR-1 cache.
  bool cache_composition = true;
  /// When true, answering `q` (2 ≤ |q| ≤ 8) also derives and admits the
  /// answers for q's size-(|q|−1) sub-itemsets (DeriveSubResult): the
  /// covers an overlapping workload's *next* superset query composes
  /// with. Each derived entry still passes cost-aware admission.
  bool cache_admit_derived = true;
  /// Cost-aware admission knob, forwarded to
  /// ResultCacheOptions::admission_bytes_per_node.
  size_t cache_admission_bytes_per_node = size_t{64} << 10;
  /// Work-aware engagement floor for partial reuse, in microseconds.
  /// Subset probing and derived admission only run while the service's
  /// EWMA of *full-walk* miss latency is at least this value — on
  /// workloads whose tree walks are already nearly free (a handful of
  /// visited nodes), every microsecond of cover planning is pure tax
  /// and the cache behaves exactly-only. 0 engages partial reuse
  /// unconditionally (tests and smoke checks use this).
  double cache_compose_min_walk_us = 100.0;
  /// Item-space shards (`tcf serve --shards`). 1 serves the tree whole;
  /// N >= 2 splits it by layer-1 item ownership and gives each shard
  /// `cache_bytes / N` of cache. 0 means 1.
  size_t num_shards = 1;
  /// Per-query traversal knobs, fixed for the service's lifetime so that
  /// cached results are interchangeable with fresh ones.
  TcTreeQueryOptions query_options{};
  /// Request-scoped tracing (docs/observability.md): every Execute
  /// records per-stage wall/CPU spans into the metrics registry's
  /// histograms and threshold-checks the slow-query log. Off, queries
  /// keep only the flat counters (a handful of relaxed atomic adds) —
  /// the bench_micro overhead guard holds that path regression-free.
  /// `EXPLAIN` passes its own trace and works either way.
  bool tracing = true;
  /// Queries at least this slow (total wall µs) enter the slow-query
  /// ring with their full trace and rendered query line. <= 0 disables
  /// the ring. Only consulted while `tracing` is on.
  double slow_query_us = 10000.0;
  /// Slow-query ring capacity (oldest evicted first).
  size_t slow_log_capacity = 128;
  /// While `tracing` is on, span-time every Nth query instead of every
  /// one (`--trace-sample=N`): the sampled queries keep the stage
  /// histograms and slow-query ring alive at 1/N the span overhead.
  /// Unsampled queries keep only the flat counters. <= 1 traces
  /// everything; `EXPLAIN` always traces its own query regardless.
  size_t trace_sample_every = 1;
};

/// \brief The online query-answering facade (§6.3 as a service), over
/// N >= 1 item-space shards.
///
/// Every pattern's TC-Tree node hangs under the layer-1 node of its
/// minimum item, so splitting the layer-1 items into N shards
/// (PartitionTcTree, HashShardPartitioner) is lossless and the
/// per-shard answer sets of any query are disjoint. A shard is only a
/// snapshot (built in-process or mapped from a TCFI file,
/// core/tcfi_format.h) plus a result cache of `cache_bytes / N` bytes.
/// Everything else exists once per service: the item dictionary, the
/// metrics registry and its instruments, the compose gate, and the
/// worker pool behind ExecuteBatch. An unsharded server is the N = 1
/// case: its one shard serves the snapshot as handed in, never
/// partitioned or materialized.
///
/// Execute sends a query whose items all live on one shard straight to
/// that shard (every query when N = 1). Any other query scatters to
/// the shards owning one of its items and k-way-merges their trusses on
/// (pattern length, lexicographic items), which is exactly single-tree
/// BFS retrieval order: BFS retrieval at each depth is lexicographic in
/// the patterns. The merged answer equals the unsharded one field for
/// field (tests/shard_router_test.cc); with `max_results` set, the
/// trusses and retrieved_nodes stay exact while visited/pruned may
/// exceed the single-tree walk's (each shard walks to its own budget).
///
/// All entry points are thread-safe: snapshots are read-only and
/// reference counted, and the caches do their own locking. Swaps roll
/// shard by shard: in-flight queries finish against the old snapshot,
/// the swapped shard's cache is invalidated, and results computed
/// against a superseded snapshot are dropped rather than cached (epoch
/// check). A query scattered mid-roll may merge old-shard and new-shard
/// answers, which is sound because shard answer sets are disjoint.
class QueryService : public QueryBackend {
 public:
  /// Serves `snapshot`, split into `options.num_shards` shards (kept
  /// whole when that is 1).
  QueryService(TcTreeSnapshot snapshot, ItemDictionary dictionary,
               const QueryServiceOptions& options = {});

  QueryService(TcTree tree, ItemDictionary dictionary,
               const QueryServiceOptions& options = {})
      : QueryService(TcTreeSnapshot(std::move(tree)), std::move(dictionary),
                     options) {}

  /// Maps a persisted TCFI index and pairs it with `dictionary` (the
  /// network's, so query item names resolve to the ids the index was
  /// built over). With `options.num_shards` N >= 2 and all N slice files
  /// `TcfiSlicePath(index_path, s, N)` present (`tcf index --slices=N`),
  /// each shard maps its own slice; every slice must map and carry
  /// matching shard metadata or the open fails. Otherwise the whole
  /// file is mapped: served zero-copy at N = 1, partitioned at N >= 2.
  /// A file that is not TCFI fails with MapTcTree's Corruption.
  static StatusOr<std::unique_ptr<QueryService>> Open(
      const std::string& index_path, ItemDictionary dictionary,
      const QueryServiceOptions& options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// The nullptr-trace convenience overload from the base class.
  using QueryBackend::Execute;

  /// Execute with an explicit trace: stage spans (cache probe, compose,
  /// walk), walk facts, and total_us are recorded into `*trace` even
  /// when the service-wide `tracing` option is off — this is what the
  /// `EXPLAIN` verb rides on. A null trace falls back to the option:
  /// tracing on uses a stack-local trace to feed the stage histograms
  /// and the slow-query ring; off skips all span timing.
  Result Execute(const ServeQuery& query, QueryTrace* trace) override;

  /// Answers `queries[i]` into slot i of the returned vector, fanning
  /// out over the worker pool. Results are byte-identical to calling
  /// Execute (or QueryTcTree) serially on each query.
  std::vector<Result> ExecuteBatch(
      const std::vector<ServeQuery>& queries) override;

  /// ParseServeQuery against this service's dictionary.
  StatusOr<ServeQuery> ParseQueryLine(std::string_view line) const override {
    return ParseServeQuery(dictionary_, line);
  }

  /// Installs a new whole-tree snapshot (either flavor), split across
  /// the shards, rolling one shard at a time; every cache is
  /// invalidated.
  void SwapSnapshot(TcTreeSnapshot snapshot);
  void SwapSnapshot(TcTree tree) override;

  /// Installs `shard_snapshot` as shard `shard`'s (it must be that
  /// shard's partition); the other shards keep snapshot and cache. With
  /// `dirty_items` the shard's cache keeps every entry that does not
  /// intersect them; without, it is flushed. The unit every swap rolls.
  void SwapShardSnapshot(size_t shard,
                         std::shared_ptr<const TcTreeSnapshot> shard_snapshot,
                         const std::vector<ItemId>* dirty_items = nullptr);

  /// RELOAD from disk, loading as Open does: the N slice files when they
  /// are all present, else the whole file. Every part is mapped and
  /// checked before the first shard swaps, so a bad file leaves the
  /// live snapshots untouched. Returns the nodes installed.
  StatusOr<size_t> ReloadFromFile(const std::string& path) override;

  /// Incremental swap (core/tc_tree_update.h). At N = 1 the one shard
  /// installs `snapshot` itself — the object the IndexUpdater keeps as
  /// its next baseline, so the server holds one copy of the index. At
  /// N >= 2 it partitions a copy of the updated tree and rolls only the
  /// shards owning a changed layer-1 root; a shard owning none got a
  /// partition identical to the one it serves, so it keeps snapshot and
  /// cache. Swapped shards drop *only* the cached entries whose pattern
  /// intersects `dirty_items`; survivors are retagged to the new
  /// snapshot and keep serving. Returns the number of shards swapped.
  size_t ApplyUpdatedSnapshot(
      std::shared_ptr<const TcTreeSnapshot> snapshot,
      const std::vector<ItemId>& changed_roots,
      const std::vector<ItemId>& dirty_items) override;
  using QueryBackend::ApplyUpdatedSnapshot;

  /// Streaming updates applied so far (ApplyUpdatedSnapshot calls).
  uint64_t updates_applied() const {
    return updates_applied_.load(std::memory_order_relaxed);
  }

  /// Shard `shard`'s current snapshot — the whole tree when N = 1
  /// (shared; stays valid across swaps).
  std::shared_ptr<const TcTreeSnapshot> snapshot(size_t shard = 0) const;

  size_t num_shards() const { return shards_.size(); }
  /// The shard owning `item`'s layer-1 subtree.
  size_t ShardOfItem(ItemId item) const {
    return partitioner_.ShardOf(item, shards_.size());
  }

  const ItemDictionary& dictionary() const override { return dictionary_; }
  size_t num_threads() const override { return pool_.num_threads(); }

  /// Field-wise sum over the shard caches.
  ResultCacheStats cache_stats() const override;
  /// The registry fold plus the cache and shard counters.
  ServeReport Report() const override;

  /// The service-owned metrics registry (rendered by the METRICS verb).
  /// Transports and build hooks register their own instruments here.
  MetricsRegistry& metrics() override { return metrics_; }
  /// The slow-query ring (empty while tracing is off or nothing crossed
  /// the threshold).
  const SlowQueryLog& slow_log() const override {
    return instruments_.slow_log();
  }
  bool tracing_enabled() const override { return options_.tracing; }

 private:
  /// One item-space shard: a snapshot and its result cache.
  struct Shard {
    mutable std::mutex mu;  // guards `snapshot`
    std::shared_ptr<const TcTreeSnapshot> snapshot;
    std::unique_ptr<ResultCache> cache;  // null when caching is disabled
    Counter* queries = nullptr;          // tcf_shard<s>_queries_total
    Gauge* reload_ms = nullptr;          // tcf_shard<s>_reload_ms

    std::shared_ptr<const TcTreeSnapshot> Current() const {
      std::lock_guard<std::mutex> lock(mu);
      return snapshot;
    }
  };

  /// Serves `parts` as shards 0..N-1 (N = parts.size() >= 1).
  QueryService(std::vector<std::shared_ptr<const TcTreeSnapshot>> parts,
               ItemDictionary dictionary, const QueryServiceOptions& options);

  /// The shard owning every item of `items` (shard 0 for an empty
  /// query), or num_shards() when the items span several shards.
  size_t SoleOwner(const Itemset& items) const;

  /// One shard's answer: exact cache probe, then composition or a walk,
  /// then cache admission. Fills `t`'s stage spans and walk facts, and
  /// sets `*walk_us` to the CPU µs of a full walk that ran to the end
  /// (leaving it alone otherwise); the caller records the per-query
  /// instruments and the compose gate's sample.
  Result ExecuteOnShard(Shard& shard, const ServeQuery& query,
                        CohesionValue alpha_q,
                        const TcTreeQueryOptions& walk_options,
                        QueryTrace* t, double* walk_us);

  /// Scatters `query` to every shard owning one of its items and merges
  /// their answers; `*probed` is the number of shards it targets.
  Result ExecuteScattered(const ServeQuery& query, CohesionValue alpha_q,
                          const TcTreeQueryOptions& walk_options,
                          QueryTrace* t, size_t* probed);

  /// True when subset composition is both enabled and sound (the
  /// result-shaping query_options knobs are off; see ComposeTcTreeQuery
  /// preconditions) for a query over `items`.
  bool CanCompose(const Itemset& items) const;

  /// CanCompose plus the work-aware gate: full walks must currently be
  /// expensive enough (cache_compose_min_walk_us) for reuse to pay.
  bool ShouldCompose(const Itemset& items) const;

  /// True for every 64th otherwise-composable miss: that miss walks the
  /// tree instead, keeping the walk-cost EWMA a live estimate while
  /// composition serves the rest — so the gate can disengage when a
  /// snapshot swap or workload shift makes walks cheap, not only
  /// engage. (An EWMA fed solely by pre-engagement walks would latch on
  /// a few cold-start outliers forever.)
  bool ShouldSampleWalk();

  /// Folds one query's measured full-walk cost into the EWMA behind
  /// ShouldCompose: the sum over its shards, so the gate sees what the
  /// whole walk costs at any shard count.
  void RecordWalkMicros(double micros);

  /// Derives answers for `items`'s size-(|items|−1) sub-itemsets from
  /// `result` and admits the ones not already resident in `cache` (see
  /// QueryServiceOptions::cache_admit_derived).
  void AdmitDerivedSubsets(ResultCache& cache, const Itemset& items,
                           CohesionValue alpha_q, const Result& result,
                           uint64_t epoch_seen,
                           const std::shared_ptr<const TcTreeSnapshot>& snap);

  // Declared first so the registry (whose callback instruments read the
  // shards at scrape time) is destroyed last.
  MetricsRegistry metrics_;
  ItemDictionary dictionary_;
  QueryServiceOptions options_;
  QueryInstruments instruments_;
  HashShardPartitioner partitioner_;
  ThreadPool pool_;
  std::vector<Shard> shards_;

  // Hot-path instrument handles, resolved once at construction.
  Counter& cache_hits_total_;
  Counter& cache_misses_total_;
  Counter& composed_total_;
  Counter& covers_used_total_;
  Counter& nodes_visited_total_;
  Counter& prunes_total_;
  Counter& shard_queries_total_;
  Histogram& fanout_;
  Gauge& shard_reload_ms_;
  /// EWMA (α = 0.1) of full-walk miss latency, µs. Composed misses do
  /// not update it — it tracks what a walk *would* cost, so the gate
  /// cannot oscillate by measuring its own savings; ShouldSampleWalk's
  /// periodic forced walks keep it live while composition is engaged.
  std::atomic<double> walk_us_ewma_{0.0};
  std::atomic<uint64_t> composable_misses_{0};  // ShouldSampleWalk clock
  std::atomic<uint64_t> updates_applied_{0};    // incremental swaps so far
};

}  // namespace tcf

#endif  // TCF_SERVE_QUERY_SERVICE_H_
