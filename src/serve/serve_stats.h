#ifndef TCF_SERVE_SERVE_STATS_H_
#define TCF_SERVE_SERVE_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/result_cache.h"
#include "util/table.h"
#include "util/timer.h"

namespace tcf {

class ItemDictionary;
struct QueryServiceOptions;
struct ServeQuery;

/// \file
/// \brief The serving layer's instruments and the report folded from
/// them. A backend's MetricsRegistry is the one store: the code that
/// does the work increments its counters, METRICS renders it, and
/// STATS / ServeReport are a fold of it. Every store is O(buckets), so
/// memory and the cost of a report stay flat however long a server runs.

/// Point-in-time view of one backend's registry (QueryBackend::Report).
struct ServeReport {
  uint64_t queries = 0;      // answered queries (tcf_query_total_us count)
  uint64_t trusses_returned = 0;
  double wall_seconds = 0;   // since the backend was constructed
  double qps = 0;            // queries / wall_seconds
  double mean_us = 0;        // per-query latency (exact: sum / count)
  // Interpolated from the log2 buckets of tcf_query_total_us, so within
  // 2x of the true value; max_us is the top occupied bucket's bound.
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double max_us = 0;
  ResultCacheStats cache;    // zero-initialized if no cache attached

  // Network-transport counters (zero when serving in-process). Like
  // the counters below they are cumulative over the server's lifetime,
  // and Since() leaves them so.
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;  // accepted minus closed
  uint64_t connections_peak = 0;    // high-water mark of active
  uint64_t bytes_in = 0;            // request bytes read off sockets
  uint64_t bytes_out = 0;           // response bytes written

  // Pipelining counters (BATCH verb). batch_queries / batches is the
  // mean depth.
  uint64_t batches = 0;
  uint64_t batch_queries = 0;   // query lines carried inside batches
  uint64_t batch_max_depth = 0;

  // Snapshot-roll counters (RELOAD verb / FileWatcher). `last_reload_ms`
  // is the wall time of the most recent load-and-swap — the number an
  // operator watches shrink when the index is rebuilt with more
  // `--build-threads`.
  uint64_t reloads = 0;
  double last_reload_ms = 0;

  // Sharding counters (serve/query_service.h). `shards` is the shard
  // count, 1 when unsharded. `shard_queries` counts per-shard
  // sub-queries (one per query when unsharded) — divided by `queries`
  // it is the mean scatter fan-out. `shard_reload_ms` is the
  // wall time of the most recent *single-shard* snapshot swap: the
  // longest pause any one shard's cache sees during a rolling reload,
  // as opposed to `last_reload_ms`, which times the whole roll.
  uint64_t shards = 0;
  uint64_t shard_queries = 0;
  double shard_reload_ms = 0;

  // Streaming-update counters (UPDATE verb / IndexUpdater). `updates`
  // counts accepted flushes; txs/edges/dirty items sum over them;
  // `update_shards_swapped` sums the snapshots each apply actually
  // rolled (1 per flush unsharded; only the shards owning a changed
  // root on a sharded backend). `last_update_ms` is the wall time of
  // the most recent enqueue-to-swap apply — the freshness latency an
  // operator watches under churn.
  uint64_t updates = 0;
  uint64_t update_txs = 0;
  uint64_t update_edges = 0;
  uint64_t update_dirty_items = 0;
  uint64_t update_shards_swapped = 0;
  double last_update_ms = 0;

  // Overload-protection counters (deadlines / rate limiting / load
  // shedding). `deadline_exceeded` counts queries that expired
  // mid-execution and returned ERR DeadlineExceeded; `rate_limited`
  // counts requests refused by the per-client token bucket; `shed`
  // counts requests dropped by queue-depth load shedding;
  // `clients_tracked` is the point-in-time size of the per-client
  // accounting LRU.
  uint64_t deadline_exceeded = 0;
  uint64_t rate_limited = 0;
  uint64_t shed = 0;
  uint64_t clients_tracked = 0;

  /// The folded tcf_query_total_us the latency fields come from, kept
  /// so that Since() can subtract bucket by bucket.
  Histogram::Snapshot latency;

  /// This report scoped to the pass since `before`, an earlier report
  /// of the same backend (`tcf serve --repeat`, the benches): queries,
  /// latencies, trusses, wall time, shard sub-queries and the cumulative
  /// cache counters become deltas; point-in-time and lifetime-of-server
  /// fields keep this report's values.
  ServeReport Since(const ServeReport& before) const;

  /// Renders the report as a two-column (metric, value) table.
  TextTable ToTable() const;
  std::string ToString() const;
};

/// \brief Handles to the serving layer's lifecycle and transport
/// instruments in one registry: tcf_connections_*, tcf_bytes_*,
/// tcf_batch*, tcf_reloads_total, tcf_updates_* and the overload
/// counters.
///
/// Construction registers the families (idempotently, so every holder
/// gets the same instruments): the backend, TcpServer and FileWatcher
/// each hold their own ServeCounters over the backend's registry and
/// record into it directly.
struct ServeCounters {
  explicit ServeCounters(MetricsRegistry& registry);

  Counter& connections_accepted;
  Gauge& connections_active;
  Gauge& connections_peak;
  Counter& bytes_in;
  Counter& bytes_out;
  Counter& batches;
  Counter& batch_queries;
  Gauge& batch_max_depth;  // unexported: STATS only
  Counter& reloads;
  Gauge& last_reload_ms;
  Counter& updates;
  Counter& update_txs;
  Counter& update_edges;
  Counter& update_dirty_items;
  Counter& update_shards_swapped;
  Gauge& last_update_ms;
  Counter& deadline_exceeded;
  Counter& rate_limited;
  Counter& shed;
  Gauge& clients_tracked;
};

/// \brief The per-query instruments QueryService::Execute records
/// into, once per query whatever the shard count: tcf_queries_total,
/// tcf_query_total_us, tcf_trusses_returned_total, the stage
/// histograms, tcf_slow_queries_total with the slow-query ring, and the
/// tcf_query_latency_p99_us gauge — plus the ServeCounters that
/// Report() folds.
class QueryInstruments {
 public:
  /// Registers everything in `registry`. `registry` and `dictionary`
  /// (which renders slow-query lines) must outlive this object.
  QueryInstruments(MetricsRegistry& registry,
                   const QueryServiceOptions& options,
                   const ItemDictionary& dictionary);

  QueryInstruments(const QueryInstruments&) = delete;
  QueryInstruments& operator=(const QueryInstruments&) = delete;

  /// True when this query should carry a stack-local trace: tracing is
  /// on and the sample clock says it is this query's turn (every
  /// trace_sample_every-th; <= 1 means all).
  bool ShouldTrace();

  /// Counts one Execute call (tcf_queries_total), answered or not.
  void CountExecute() { queries_total_.Increment(); }

  /// Records one answered query: its latency into tcf_query_total_us
  /// and its truss count, traced or not. A non-null `trace` (total_us
  /// set) also feeds the stage histograms and the slow-query ring.
  void RecordAnswered(const ServeQuery& query, double total_us,
                      uint64_t trusses, const QueryTrace* trace);

  /// Records one query that expired mid-execution: partial work is not
  /// an answer, so it stays out of the latency and truss counts; a
  /// trace still feeds the stage histograms and the slow-query ring.
  void RecordExpired(const ServeQuery& query, const QueryTrace* trace);

  /// Folds the registry (plus the cache's counters) into a report.
  ServeReport Report(const ResultCacheStats& cache) const;

  const SlowQueryLog& slow_log() const { return slow_log_; }

 private:
  void RecordTrace(const ServeQuery& query, const QueryTrace& trace);

  const ItemDictionary& dictionary_;
  const bool tracing_;
  const size_t trace_sample_every_;
  SlowQueryLog slow_log_;
  ServeCounters counters_;
  WallTimer wall_;  // started with the backend
  Counter& queries_total_;
  Counter& trusses_returned_;
  Counter& slow_queries_total_;
  Histogram& query_total_us_;
  std::array<Histogram*, kNumQueryStages> stage_us_;
  std::atomic<uint64_t> trace_clock_{0};  // ShouldTrace clock
};

}  // namespace tcf

#endif  // TCF_SERVE_SERVE_STATS_H_
