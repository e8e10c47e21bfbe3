#include "serve/serve_stats.h"

#include <sstream>

#include "serve/line_protocol.h"
#include "serve/query_service.h"
#include "util/string_util.h"

namespace tcf {
namespace {

/// Derives queries, qps, mean and the percentiles from `r->latency` and
/// `r->wall_seconds`.
void DeriveLatencyFields(ServeReport* r) {
  r->queries = r->latency.count;
  r->qps = r->wall_seconds > 0
               ? static_cast<double>(r->queries) / r->wall_seconds
               : 0;
  r->mean_us = r->queries > 0
                   ? r->latency.sum / static_cast<double>(r->queries)
                   : 0;
  r->p50_us = HistogramQuantile(r->latency, 0.50);
  r->p90_us = HistogramQuantile(r->latency, 0.90);
  r->p99_us = HistogramQuantile(r->latency, 0.99);
  r->max_us = HistogramQuantile(r->latency, 1.0);
}

uint64_t GaugeU64(const Gauge& g) { return static_cast<uint64_t>(g.Value()); }

}  // namespace

ServeReport ServeReport::Since(const ServeReport& before) const {
  ServeReport pass = *this;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    pass.latency.buckets[b] -= before.latency.buckets[b];
  }
  pass.latency.count -= before.latency.count;
  pass.latency.sum -= before.latency.sum;
  pass.trusses_returned -= before.trusses_returned;
  pass.wall_seconds -= before.wall_seconds;
  pass.shard_queries -= before.shard_queries;
  pass.cache.hits -= before.cache.hits;
  pass.cache.misses -= before.cache.misses;
  pass.cache.inserts -= before.cache.inserts;
  pass.cache.evictions -= before.cache.evictions;
  pass.cache.invalidations -= before.cache.invalidations;
  pass.cache.partial_hits -= before.cache.partial_hits;
  pass.cache.composed_queries -= before.cache.composed_queries;
  pass.cache.admission_rejects -= before.cache.admission_rejects;
  DeriveLatencyFields(&pass);
  return pass;
}

TextTable ServeReport::ToTable() const {
  TextTable t({"metric", "value"});
  t.AddRow({"queries", TextTable::Num(queries)});
  t.AddRow({"wall time (s)", TextTable::Num(wall_seconds)});
  t.AddRow({"throughput (q/s)", TextTable::Num(qps)});
  t.AddRow({"latency mean (us)", TextTable::Num(mean_us)});
  t.AddRow({"latency p50 (us)", TextTable::Num(p50_us)});
  t.AddRow({"latency p90 (us)", TextTable::Num(p90_us)});
  t.AddRow({"latency p99 (us)", TextTable::Num(p99_us)});
  t.AddRow({"latency max (us)", TextTable::Num(max_us)});
  t.AddRow({"trusses returned", TextTable::Num(trusses_returned)});
  t.AddRow({"cache hit rate", TextTable::Num(cache.HitRate())});
  t.AddRow({"cache hits", TextTable::Num(cache.hits)});
  t.AddRow({"cache misses", TextTable::Num(cache.misses)});
  t.AddRow({"cache entries", TextTable::Num(static_cast<uint64_t>(
                                 cache.entries))});
  t.AddRow({"cache bytes", TextTable::Num(static_cast<uint64_t>(
                               cache.bytes))});
  t.AddRow({"cache evictions", TextTable::Num(cache.evictions)});
  // Partial-reuse counters (subset-composable cache): a "partial hit" is
  // one cached sub-pattern answer reused as a composition building block.
  t.AddRow({"cache partial hits", TextTable::Num(cache.partial_hits)});
  t.AddRow({"cache composed", TextTable::Num(cache.composed_queries)});
  t.AddRow(
      {"cache admission rejects", TextTable::Num(cache.admission_rejects)});
  // Network rows appear only once a transport is attached, so the
  // in-process `tcf serve --workload` report is unchanged.
  if (connections_accepted > 0) {
    t.AddRow({"connections accepted", TextTable::Num(connections_accepted)});
    t.AddRow({"connections active", TextTable::Num(connections_active)});
    t.AddRow({"connections peak", TextTable::Num(connections_peak)});
    t.AddRow({"bytes in", TextTable::Num(bytes_in)});
    t.AddRow({"bytes out", TextTable::Num(bytes_out)});
  }
  if (batches > 0) {
    t.AddRow({"batches", TextTable::Num(batches)});
    t.AddRow({"batch queries", TextTable::Num(batch_queries)});
    t.AddRow({"batch depth (mean)",
              TextTable::Num(static_cast<double>(batch_queries) /
                             static_cast<double>(batches))});
    t.AddRow({"batch depth (max)", TextTable::Num(batch_max_depth)});
  }
  if (reloads > 0) {
    t.AddRow({"reloads", TextTable::Num(reloads)});
    t.AddRow({"last reload (ms)", TextTable::Num(last_reload_ms)});
  }
  // Shard rows appear only on a sharded backend, so single-tree
  // reports keep their shape.
  if (shards > 1) {
    t.AddRow({"shards", TextTable::Num(shards)});
    t.AddRow({"shard queries", TextTable::Num(shard_queries)});
    if (queries > 0) {
      t.AddRow({"shard fan-out (mean)",
                TextTable::Num(static_cast<double>(shard_queries) /
                               static_cast<double>(queries))});
    }
    t.AddRow({"shard reload (ms)", TextTable::Num(shard_reload_ms)});
  }
  // Update rows appear only once a streaming update has been accepted,
  // so static-index reports keep their shape.
  if (updates > 0) {
    t.AddRow({"updates", TextTable::Num(updates)});
    t.AddRow({"update txs", TextTable::Num(update_txs)});
    t.AddRow({"update edges", TextTable::Num(update_edges)});
    t.AddRow({"update dirty items", TextTable::Num(update_dirty_items)});
    t.AddRow(
        {"update shards swapped", TextTable::Num(update_shards_swapped)});
    t.AddRow({"last update (ms)", TextTable::Num(last_update_ms)});
  }
  // Overload-protection rows appear only once a deadline expired or the
  // transport refused work, so calm-weather reports keep their shape.
  if (deadline_exceeded > 0 || rate_limited > 0 || shed > 0) {
    t.AddRow({"deadline exceeded", TextTable::Num(deadline_exceeded)});
    t.AddRow({"rate limited", TextTable::Num(rate_limited)});
    t.AddRow({"shed", TextTable::Num(shed)});
    t.AddRow({"clients tracked", TextTable::Num(clients_tracked)});
  }
  return t;
}

std::string ServeReport::ToString() const {
  std::ostringstream os;
  ToTable().Print(os);
  return os.str();
}

ServeCounters::ServeCounters(MetricsRegistry& r)
    : connections_accepted(r.GetCounter("tcf_connections_accepted_total",
                                        "Network connections accepted.")),
      connections_active(r.GetGauge("tcf_connections_active",
                                    "Currently open network connections.")),
      connections_peak(r.GetGauge("tcf_connections_peak",
                                  "High-water mark of active connections.")),
      bytes_in(r.GetCounter("tcf_bytes_in_total",
                            "Request bytes read off sockets.")),
      bytes_out(r.GetCounter("tcf_bytes_out_total",
                             "Response bytes written to sockets.")),
      batches(r.GetCounter("tcf_batches_total", "BATCH requests executed.")),
      batch_queries(r.GetCounter("tcf_batch_queries_total",
                                 "Query lines carried inside batches.")),
      batch_max_depth(r.GetUnexportedGauge("tcf_batch_max_depth")),
      reloads(r.GetCounter("tcf_reloads_total", "Snapshot reloads completed.")),
      last_reload_ms(r.GetGauge("tcf_last_reload_ms",
                                "Wall time of the most recent reload, ms.")),
      updates(r.GetCounter("tcf_updates_total",
                           "Streaming-update flushes accepted.")),
      update_txs(r.GetCounter("tcf_update_txs_total",
                              "Transactions applied by streaming updates.")),
      update_edges(r.GetCounter("tcf_update_edges_total",
                                "Edges applied by streaming updates.")),
      update_dirty_items(r.GetCounter(
          "tcf_update_dirty_items_total",
          "Items dirtied by streaming updates (cache-invalidation scope).")),
      update_shards_swapped(
          r.GetCounter("tcf_update_shards_swapped_total",
                       "Shard snapshots rolled by streaming updates.")),
      last_update_ms(r.GetGauge(
          "tcf_last_update_ms",
          "Enqueue-to-swap wall time of the most recent update, ms.")),
      deadline_exceeded(r.GetCounter(
          "tcf_deadline_exceeded_total",
          "Queries that expired mid-execution (ERR DeadlineExceeded).")),
      rate_limited(
          r.GetCounter("tcf_rate_limited_total",
                       "Requests refused by the per-client token bucket.")),
      shed(r.GetCounter("tcf_shed_total",
                        "Requests dropped by queue-depth load shedding.")),
      clients_tracked(r.GetGauge(
          "tcf_clients_tracked",
          "Per-client accounting records currently held in the LRU.")) {}

QueryInstruments::QueryInstruments(MetricsRegistry& registry,
                                   const QueryServiceOptions& options,
                                   const ItemDictionary& dictionary)
    : dictionary_(dictionary),
      tracing_(options.tracing),
      trace_sample_every_(options.trace_sample_every),
      slow_log_(options.tracing ? options.slow_query_us : 0,
                options.slow_log_capacity),
      counters_(registry),
      queries_total_(registry.GetCounter("tcf_queries_total",
                                         "Queries answered by Execute")),
      trusses_returned_(registry.GetCounter(
          "tcf_trusses_returned_total",
          "Pattern trusses returned by answered queries")),
      slow_queries_total_(registry.GetCounter(
          "tcf_slow_queries_total",
          "Queries admitted to the slow-query ring")),
      query_total_us_(registry.GetHistogram(
          "tcf_query_total_us",
          "End-to-end Execute wall microseconds of answered queries")) {
  for (size_t i = 0; i < kNumQueryStages; ++i) {
    const std::string stage(QueryStageName(static_cast<QueryStage>(i)));
    stage_us_[i] = &registry.GetHistogram(
        "tcf_query_stage_" + stage + "_us",
        "Wall microseconds spent in the " + stage + " stage");
  }
  registry.RegisterCallback(
      "tcf_query_latency_p99_us",
      "p99 end-to-end query latency, interpolated from the "
      "tcf_query_total_us buckets (0 until a query is answered)",
      MetricsRegistry::CallbackKind::kGauge,
      [h = &query_total_us_] { return HistogramQuantile(h->Fold(), 0.99); });
}

bool QueryInstruments::ShouldTrace() {
  if (!tracing_) return false;
  if (trace_sample_every_ <= 1) return true;
  return trace_clock_.fetch_add(1, std::memory_order_relaxed) %
             trace_sample_every_ ==
         0;
}

void QueryInstruments::RecordAnswered(const ServeQuery& query,
                                      double total_us, uint64_t trusses,
                                      const QueryTrace* trace) {
  query_total_us_.Record(total_us);
  trusses_returned_.Increment(trusses);
  if (trace != nullptr) RecordTrace(query, *trace);
}

void QueryInstruments::RecordExpired(const ServeQuery& query,
                                     const QueryTrace* trace) {
  counters_.deadline_exceeded.Increment();
  if (trace != nullptr) RecordTrace(query, *trace);
}

void QueryInstruments::RecordTrace(const ServeQuery& query,
                                   const QueryTrace& trace) {
  // kParse/kSerialize belong to the transport; Execute's stages are the
  // middle three. Zero-duration stages that never ran stay out of their
  // histograms so the bucket counts mean "times this stage executed".
  for (const QueryStage stage :
       {QueryStage::kCacheProbe, QueryStage::kCompose, QueryStage::kWalk}) {
    const double us = trace.stage_wall_us[static_cast<size_t>(stage)];
    if (us > 0) stage_us_[static_cast<size_t>(stage)]->Record(us);
  }
  if (slow_log_.Qualifies(trace.total_us)) {
    slow_queries_total_.Increment();
    // Paid only for queries that already crossed the threshold.
    slow_log_.Record(EncodeQueryLine(dictionary_, query), trace);
  }
}

ServeReport QueryInstruments::Report(const ResultCacheStats& cache) const {
  const ServeCounters& c = counters_;
  ServeReport r;
  r.cache = cache;
  r.wall_seconds = wall_.Seconds();
  r.latency = query_total_us_.Fold();
  r.trusses_returned = trusses_returned_.Value();
  DeriveLatencyFields(&r);
  r.connections_accepted = c.connections_accepted.Value();
  r.connections_active = GaugeU64(c.connections_active);
  r.connections_peak = GaugeU64(c.connections_peak);
  r.bytes_in = c.bytes_in.Value();
  r.bytes_out = c.bytes_out.Value();
  r.batches = c.batches.Value();
  r.batch_queries = c.batch_queries.Value();
  r.batch_max_depth = GaugeU64(c.batch_max_depth);
  r.reloads = c.reloads.Value();
  r.last_reload_ms = c.last_reload_ms.Value();
  r.updates = c.updates.Value();
  r.update_txs = c.update_txs.Value();
  r.update_edges = c.update_edges.Value();
  r.update_dirty_items = c.update_dirty_items.Value();
  r.update_shards_swapped = c.update_shards_swapped.Value();
  r.last_update_ms = c.last_update_ms.Value();
  r.deadline_exceeded = c.deadline_exceeded.Value();
  r.rate_limited = c.rate_limited.Value();
  r.shed = c.shed.Value();
  r.clients_tracked = GaugeU64(c.clients_tracked);
  return r;
}

}  // namespace tcf
