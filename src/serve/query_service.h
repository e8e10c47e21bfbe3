#ifndef TCF_SERVE_QUERY_SERVICE_H_
#define TCF_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

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
  /// Per-query traversal knobs, fixed for the service's lifetime so that
  /// cached results are interchangeable with fresh ones.
  TcTreeQueryOptions query_options;
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

/// \brief The online query-answering facade (§6.3 as a service).
///
/// Owns an immutable TC-Tree snapshot (built in-process or loaded via
/// tc_tree_io), the item dictionary used to resolve query item names, a
/// sharded result cache, and a worker pool. `Execute` answers a single
/// query; `ExecuteBatch` fans a workload out over the pool. All entry
/// points are thread-safe: the tree snapshot is read-only and reference
/// counted, and the cache does its own locking.
///
/// `SwapSnapshot` installs a new tree (e.g. a freshly rebuilt index)
/// without stopping traffic: in-flight queries finish against the old
/// snapshot, the cache is invalidated, and results computed against the
/// superseded snapshot are dropped rather than cached (epoch check).
class QueryService : public QueryBackend {
 public:
  /// The primary constructor: serves whichever snapshot flavor it is
  /// handed — a heap-owned TcTree or a zero-copy mmap'ed TCFI file.
  QueryService(TcTreeSnapshot snapshot, ItemDictionary dictionary,
               const QueryServiceOptions& options = {});

  QueryService(TcTree tree, ItemDictionary dictionary,
               const QueryServiceOptions& options = {})
      : QueryService(TcTreeSnapshot(std::move(tree)), std::move(dictionary),
                     options) {}

  /// Loads a persisted index and pairs it with `dictionary` (the
  /// network's, so query item names resolve to the ids the index was
  /// built over). A `.tcfi` file (sniffed by magic, not extension) is
  /// mmap'ed and served zero-copy; anything else goes through the
  /// streaming TCFT loader into an owned tree.
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

  /// Installs a new snapshot (either flavor) and invalidates the cache.
  void SwapSnapshot(TcTreeSnapshot snapshot);
  /// Installs a new tree snapshot and invalidates the cache.
  void SwapSnapshot(TcTree tree) override;

  /// RELOAD from disk: a valid `.tcfi` file is installed as a mapped
  /// snapshot (no materialization — the load is O(1) validation plus an
  /// epoch swap); anything else parses as TCFT. See
  /// QueryBackend::ReloadFromFile.
  StatusOr<size_t> ReloadFromFile(const std::string& path) override;

  /// Incremental swap (core/tc_tree_update.h): installs the updated
  /// tree, then drops *only* the cached entries whose pattern
  /// intersects `dirty_items` — survivors are retagged to the new
  /// snapshot and keep serving as exact hits and composition covers.
  /// Always returns 1 (one snapshot swapped; `changed_roots` only
  /// matters to sharded backends).
  size_t ApplyUpdatedSnapshot(TcTree tree,
                              const std::vector<ItemId>& changed_roots,
                              const std::vector<ItemId>& dirty_items) override;

  /// Streaming updates applied so far (ApplyUpdatedSnapshot calls).
  uint64_t updates_applied() const {
    return updates_applied_.load(std::memory_order_relaxed);
  }

  /// The current snapshot (shared; stays valid across swaps).
  std::shared_ptr<const TcTreeSnapshot> snapshot() const;

  const ItemDictionary& dictionary() const override { return dictionary_; }
  size_t num_threads() const override { return pool_.num_threads(); }

  ServeStats& stats() override { return stats_; }
  ResultCacheStats cache_stats() const override {
    return cache_ ? cache_->Stats() : ResultCacheStats{};
  }
  /// Stats + cache counters in one report.
  ServeReport Report() const override { return stats_.Report(cache_stats()); }

  /// The service-owned metrics registry (rendered by the METRICS verb).
  /// Transports and build hooks register their own instruments here.
  MetricsRegistry& metrics() override { return metrics_; }
  /// The slow-query ring (empty while tracing is off or nothing crossed
  /// the threshold).
  const SlowQueryLog& slow_log() const override { return slow_log_; }
  bool tracing_enabled() const override { return options_.tracing; }

 private:
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

  /// Folds one measured full-walk miss latency into the EWMA behind
  /// ShouldCompose.
  void RecordWalkMicros(double micros);

  /// True when this query should carry a stack-local trace: tracing is
  /// on and the sample clock says it's this query's turn (every
  /// trace_sample_every-th; <= 1 means all).
  bool ShouldTrace();

  /// Derives answers for `items`'s size-(|items|−1) sub-itemsets from
  /// `result` and admits the ones not already resident (see
  /// QueryServiceOptions::cache_admit_derived).
  void AdmitDerivedSubsets(const Itemset& items, CohesionValue alpha_q,
                           const Result& result, uint64_t epoch_seen,
                           const std::shared_ptr<const TcTreeSnapshot>& snap);

  /// Folds one finished traced query into the registry histograms and,
  /// when slow enough, the ring.
  void RecordTrace(const ServeQuery& query, const QueryTrace& trace);

  // Declared before the cache and stats so the registry (whose callback
  // instruments read them at scrape time) is destroyed last.
  MetricsRegistry metrics_;
  SlowQueryLog slow_log_;
  ItemDictionary dictionary_;
  QueryServiceOptions options_;
  ThreadPool pool_;
  std::unique_ptr<ResultCache> cache_;  // null when caching is disabled
  ServeStats stats_;

  // Hot-path instrument handles, resolved once at construction.
  Counter& queries_total_;
  Counter& cache_hits_total_;
  Counter& cache_misses_total_;
  Counter& composed_total_;
  Counter& covers_used_total_;
  Counter& nodes_visited_total_;
  Counter& prunes_total_;
  Counter& slow_queries_total_;
  Histogram& query_total_us_;
  std::array<Histogram*, kNumQueryStages> stage_us_;
  /// EWMA (α = 0.1) of full-walk miss latency, µs. Composed misses do
  /// not update it — it tracks what a walk *would* cost, so the gate
  /// cannot oscillate by measuring its own savings; ShouldSampleWalk's
  /// periodic forced walks keep it live while composition is engaged.
  std::atomic<double> walk_us_ewma_{0.0};
  std::atomic<uint64_t> composable_misses_{0};  // ShouldSampleWalk clock
  std::atomic<uint64_t> trace_clock_{0};        // ShouldTrace clock
  std::atomic<uint64_t> updates_applied_{0};    // incremental swaps so far

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const TcTreeSnapshot> snapshot_;
};

}  // namespace tcf

#endif  // TCF_SERVE_QUERY_SERVICE_H_
