#include "serve/query_service.h"

#include <cmath>
#include <latch>
#include <utility>

#include "core/cohesion.h"
#include "core/tc_tree_io.h"
#include "core/tcfi_format.h"
#include "serve/line_protocol.h"
#include "util/failpoint.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tcf {

QueryService::QueryService(TcTreeSnapshot snapshot, ItemDictionary dictionary,
                           const QueryServiceOptions& options)
    : slow_log_(options.tracing ? options.slow_query_us : 0,
                options.slow_log_capacity),
      dictionary_(std::move(dictionary)),
      options_(options),
      pool_(options.num_threads == 0 ? HardwareThreads()
                                     : options.num_threads),
      queries_total_(metrics_.GetCounter("tcf_queries_total",
                                         "Queries answered by Execute")),
      cache_hits_total_(metrics_.GetCounter(
          "tcf_query_cache_hits_total",
          "Queries answered from the exact-match result cache")),
      cache_misses_total_(metrics_.GetCounter(
          "tcf_query_cache_misses_total",
          "Queries that missed the exact-match result cache")),
      composed_total_(metrics_.GetCounter(
          "tcf_query_composed_total",
          "Misses answered by subset composition instead of a full walk")),
      covers_used_total_(metrics_.GetCounter(
          "tcf_query_covers_used_total",
          "Cached sub-pattern answers reused as composition covers")),
      nodes_visited_total_(metrics_.GetCounter(
          "tcf_query_nodes_visited_total",
          "TC-Tree nodes whose decomposition a query walk consulted")),
      prunes_total_(metrics_.GetCounter(
          "tcf_query_prunes_total",
          "Prop-5.2 subtree prunes taken by query walks")),
      slow_queries_total_(metrics_.GetCounter(
          "tcf_slow_queries_total",
          "Queries admitted to the slow-query ring")),
      query_total_us_(metrics_.GetHistogram(
          "tcf_query_total_us", "End-to-end Execute wall microseconds")),
      snapshot_(std::make_shared<const TcTreeSnapshot>(std::move(snapshot))) {
  for (size_t i = 0; i < kNumQueryStages; ++i) {
    const auto stage = static_cast<QueryStage>(i);
    stage_us_[i] = &metrics_.GetHistogram(
        StrFormat("tcf_query_stage_%.*s_us",
                  static_cast<int>(QueryStageName(stage).size()),
                  QueryStageName(stage).data()),
        std::string("Wall microseconds spent in the ") +
            std::string(QueryStageName(stage)) + " stage");
  }
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<ResultCache>(ResultCacheOptions{
        .capacity_bytes = options_.cache_bytes,
        .num_shards = options_.cache_shards,
        .admission_bytes_per_node = options_.cache_admission_bytes_per_node});
    // Scrape-time cache residency and lifetime counters: the callbacks
    // take the cache's shard locks, a cost paid per scrape, never per
    // query. `this` outlives the registry's renders (the registry is a
    // member destroyed after the cache).
    metrics_.RegisterCallback(
        "tcf_cache_entries", "Resident result-cache entries",
        MetricsRegistry::CallbackKind::kGauge,
        [this] { return static_cast<double>(cache_->Stats().entries); });
    metrics_.RegisterCallback(
        "tcf_cache_bytes", "Resident result-cache bytes",
        MetricsRegistry::CallbackKind::kGauge,
        [this] { return static_cast<double>(cache_->Stats().bytes); });
    metrics_.RegisterCallback(
        "tcf_cache_evictions_total", "Result-cache entries evicted",
        MetricsRegistry::CallbackKind::kCounter,
        [this] { return static_cast<double>(cache_->Stats().evictions); });
    metrics_.RegisterCallback(
        "tcf_cache_partial_hits_total",
        "Cached sub-pattern answers reused as covers (cache view)",
        MetricsRegistry::CallbackKind::kCounter,
        [this] { return static_cast<double>(cache_->Stats().partial_hits); });
    metrics_.RegisterCallback(
        "tcf_cache_admission_rejects_total",
        "Inserts refused by cost-aware admission",
        MetricsRegistry::CallbackKind::kCounter, [this] {
          return static_cast<double>(cache_->Stats().admission_rejects);
        });
  }
  stats_.RegisterMetrics(&metrics_);
  metrics_.RegisterCallback(
      "tcf_walk_us_ewma",
      "EWMA of full-walk miss CPU microseconds (composition gate input)",
      MetricsRegistry::CallbackKind::kGauge,
      [this] { return walk_us_ewma_.load(std::memory_order_relaxed); });
  metrics_.RegisterCallback(
      "tcf_query_latency_p99_us",
      "p99 end-to-end query latency, interpolated from the "
      "tcf_query_total_us buckets (0 until a traced query lands)",
      MetricsRegistry::CallbackKind::kGauge,
      [this] { return HistogramQuantile(query_total_us_.Fold(), 0.99); });
}

StatusOr<std::unique_ptr<QueryService>> QueryService::Open(
    const std::string& index_path, ItemDictionary dictionary,
    const QueryServiceOptions& options) {
  if (LooksLikeTcfiFile(index_path)) {
    auto mapped = MapTcTree(index_path);
    if (!mapped.ok()) return mapped.status();
    return std::make_unique<QueryService>(TcTreeSnapshot(std::move(*mapped)),
                                          std::move(dictionary), options);
  }
  auto tree = LoadTcTreeFromFile(index_path);
  if (!tree.ok()) return tree.status();
  return std::make_unique<QueryService>(std::move(*tree),
                                        std::move(dictionary), options);
}

std::shared_ptr<const TcTreeSnapshot> QueryService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

bool QueryService::CanCompose(const Itemset& items) const {
  return options_.cache_composition && items.size() >= 2 &&
         options_.query_options.min_truss_edges == 0 &&
         options_.query_options.max_results == 0;
}

bool QueryService::ShouldCompose(const Itemset& items) const {
  return CanCompose(items) &&
         (options_.cache_compose_min_walk_us <= 0 ||
          walk_us_ewma_.load(std::memory_order_relaxed) >=
              options_.cache_compose_min_walk_us);
}

bool QueryService::ShouldSampleWalk() {
  // The gate floor being 0 means "always compose" — tests and smoke
  // checks rely on that being literal, so sampling is off too.
  if (options_.cache_compose_min_walk_us <= 0) return false;
  return composable_misses_.fetch_add(1, std::memory_order_relaxed) % 64 ==
         0;
}

bool QueryService::ShouldTrace() {
  if (!options_.tracing) return false;
  if (options_.trace_sample_every <= 1) return true;
  return trace_clock_.fetch_add(1, std::memory_order_relaxed) %
             options_.trace_sample_every ==
         0;
}

void QueryService::RecordWalkMicros(double micros) {
  double ewma = walk_us_ewma_.load(std::memory_order_relaxed);
  double next = ewma == 0 ? micros : 0.9 * ewma + 0.1 * micros;
  while (!walk_us_ewma_.compare_exchange_weak(
      ewma, next, std::memory_order_relaxed)) {
    next = ewma == 0 ? micros : 0.9 * ewma + 0.1 * micros;
  }
}

void QueryService::AdmitDerivedSubsets(
    const Itemset& items, CohesionValue alpha_q, const Result& result,
    uint64_t epoch_seen, const std::shared_ptr<const TcTreeSnapshot>& snap) {
  if (!options_.cache_admit_derived || !ShouldCompose(items) ||
      items.size() > 8) {
    return;
  }
  for (const Itemset& sub : items.AllSubsetsMinusOne()) {
    if (sub.empty() || cache_->Contains(sub, alpha_q)) continue;
    cache_->Insert(sub, alpha_q,
                   std::make_shared<TcTreeQueryResult>(
                       DeriveSubResult(*result, sub)),
                   epoch_seen, snap, /*speculative=*/true);
  }
}

void QueryService::RecordTrace(const ServeQuery& query,
                               const QueryTrace& trace) {
  query_total_us_.Record(trace.total_us);
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

QueryService::Result QueryService::Execute(const ServeQuery& query,
                                           QueryTrace* trace) {
  WallTimer timer;
  // Tracing selects between one shared code path with spans and the
  // span-free fast path: a stack-local trace when the option is on, the
  // caller's when one is passed (EXPLAIN), nullptr otherwise.
  QueryTrace local_trace;
  QueryTrace* t =
      trace != nullptr ? trace : (ShouldTrace() ? &local_trace : nullptr);
  const CohesionValue alpha_q = QuantizeAlpha(query.alpha);
  queries_total_.Increment();

  // Per-call traversal options: the service-wide knobs plus this
  // query's budget. The "walk.deadline" failpoint stamps an
  // already-expired budget so chaos tests exercise the genuine in-walk
  // cancellation path, not a shortcut.
  TcTreeQueryOptions walk_options = options_.query_options;
  walk_options.deadline = query.deadline;
  if (TCF_FAILPOINT("walk.deadline")) {
    walk_options.deadline = Deadline::Expired();
  }

  if (cache_) {
    Result hit;
    {
      StageSpan probe(t, QueryStage::kCacheProbe);
      hit = cache_->Lookup(query.items, alpha_q);
    }
    if (hit) {
      cache_hits_total_.Increment();
      const double us = timer.Micros();
      stats_.RecordQuery(us, hit->trusses.size());
      if (t != nullptr) {
        t->cache_hit = true;
        t->updates_applied = updates_applied();
        t->trusses = hit->trusses.size();
        t->total_us = us;
        RecordTrace(query, *t);
      }
      return hit;
    }
    cache_misses_total_.Increment();
  }

  // Read the cache epoch *before* picking the snapshot: if a swap lands
  // while we compute, the epoch check in Insert drops our stale answer.
  const uint64_t epoch = cache_ ? cache_->epoch() : 0;
  const std::shared_ptr<const TcTreeSnapshot> snap = snapshot();

  std::shared_ptr<TcTreeQueryResult> result;
  if (cache_ && ShouldCompose(query.items) && !ShouldSampleWalk()) {
    // Partial reuse: compose the answer from cached subset answers plus
    // a residual probe. Covers are tagged with the snapshot they were
    // computed from, so a swap racing this miss can at worst leave the
    // plan empty — never mix answers from two trees.
    StageSpan compose(t, QueryStage::kCompose);
    const std::vector<ResultCache::CachedCover> covers =
        cache_->LookupSubsets(query.items, alpha_q, snap.get());
    if (!covers.empty()) {
      std::vector<SubPatternCover> blocks;
      blocks.reserve(covers.size());
      for (const ResultCache::CachedCover& cover : covers) {
        blocks.push_back({&cover.itemset, cover.value.get()});
      }
      result = std::make_shared<TcTreeQueryResult>(
          snap->Compose(query.items, query.alpha, blocks, walk_options));
      composed_total_.Increment();
      covers_used_total_.Increment(covers.size());
      if (t != nullptr) {
        t->composed = true;
        t->covers_used = covers.size();
      }
    }
  }
  if (result == nullptr) {
    // A full walk: its cost feeds the work-aware gate, so partial reuse
    // engages exactly on the workloads where walks are expensive. CPU
    // time, not wall time — an oversubscribed worker pool would
    // otherwise inflate every sample by the timeslicing factor.
    StageSpan walk(t, QueryStage::kWalk);
    ThreadCpuTimer walk_timer;
    result = std::make_shared<TcTreeQueryResult>(
        snap->Query(query.items, query.alpha, walk_options));
    // A truncated walk would feed the composition gate a cost the full
    // walk never had; only clean walks update the EWMA.
    if (!result->deadline_exceeded) RecordWalkMicros(walk_timer.Micros());
  }
  nodes_visited_total_.Increment(result->visited_nodes);
  prunes_total_.Increment(result->pruned_subtrees);
  if (result->deadline_exceeded) {
    // Partial work is not an answer: never cached, never derived from,
    // and not counted as a served query. The transport turns the flag
    // into ERR DeadlineExceeded.
    stats_.RecordDeadlineExceeded();
    if (t != nullptr) {
      t->deadline_exceeded = true;
      t->updates_applied = updates_applied();
      t->visited_nodes = result->visited_nodes;
      t->retrieved_nodes = result->retrieved_nodes;
      t->pruned_subtrees = result->pruned_subtrees;
      t->trusses = result->trusses.size();
      t->total_us = timer.Micros();
      RecordTrace(query, *t);
    }
    return result;
  }
  if (cache_) {
    cache_->Insert(query.items, alpha_q, result, epoch, snap);
    AdmitDerivedSubsets(query.items, alpha_q, result, epoch, snap);
  }

  const double us = timer.Micros();
  stats_.RecordQuery(us, result->trusses.size());
  if (t != nullptr) {
    t->updates_applied = updates_applied();
    t->visited_nodes = result->visited_nodes;
    t->retrieved_nodes = result->retrieved_nodes;
    t->pruned_subtrees = result->pruned_subtrees;
    t->trusses = result->trusses.size();
    t->total_us = us;
    RecordTrace(query, *t);
  }
  return result;
}

std::vector<QueryService::Result> QueryService::ExecuteBatch(
    const std::vector<ServeQuery>& queries) {
  std::vector<Result> results(queries.size());
  if (queries.empty()) return results;

  // Chunked fan-out with a per-batch latch (not ThreadPool::Wait, which
  // would also wait on tasks of concurrently running batches).
  const size_t chunks =
      std::min(queries.size(), pool_.num_threads() * 4);
  const size_t step = (queries.size() + chunks - 1) / chunks;
  const size_t num_tasks = (queries.size() + step - 1) / step;
  std::latch done(static_cast<ptrdiff_t>(num_tasks));
  for (size_t begin = 0; begin < queries.size(); begin += step) {
    const size_t end = std::min(queries.size(), begin + step);
    pool_.Submit([this, &queries, &results, &done, begin, end] {
      for (size_t i = begin; i < end; ++i) {
        results[i] = Execute(queries[i]);
      }
      done.count_down();
    });
  }
  done.wait();
  return results;
}

StatusOr<ServeQuery> ParseServeQuery(const ItemDictionary& dictionary,
                                     std::string_view line) {
  const std::string_view trimmed = Trim(line);
  const auto semi = trimmed.find(';');
  if (semi == std::string_view::npos) {
    return Status::InvalidArgument(
        StrFormat("col 1: '%.*s' is not 'alpha;item,item,...' (no ';')",
                  static_cast<int>(trimmed.size()), trimmed.data()));
  }
  const std::string alpha_field(Trim(trimmed.substr(0, semi)));
  auto alpha = ParseDouble(alpha_field);
  if (!alpha.ok()) {
    // ParseDouble already rejects empty fields and trailing garbage; add
    // the column so the ERR points at the alpha, and keep the code
    // (InvalidArgument vs OutOfRange for e.g. '1e999').
    const std::string msg =
        StrFormat("col 1: alpha '%s': %s", alpha_field.c_str(),
                  alpha.status().message().c_str());
    return alpha.status().IsOutOfRange() ? Status::OutOfRange(msg)
                                         : Status::InvalidArgument(msg);
  }
  if (std::isnan(*alpha)) {
    return Status::InvalidArgument("col 1: alpha is NaN");
  }
  if (*alpha < 0) {
    return Status::InvalidArgument(
        StrFormat("col 1: alpha %s is negative (cohesion thresholds are "
                  ">= 0)",
                  alpha_field.c_str()));
  }
  if (*alpha > kMaxServeAlpha) {  // also catches +inf
    return Status::OutOfRange(
        StrFormat("col 1: alpha %s exceeds the 2^32 fixed-point limit",
                  alpha_field.c_str()));
  }

  ServeQuery query;
  query.alpha = *alpha;
  const std::string_view items = Trim(trimmed.substr(semi + 1));
  if (items.empty() || items == "*") {
    std::vector<ItemId> all(dictionary.size());
    for (size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<ItemId>(i);
    }
    query.items = Itemset(std::move(all));
    return query;
  }
  std::vector<ItemId> ids;
  size_t start = semi + 1;
  while (start <= trimmed.size()) {
    const size_t comma = trimmed.find(',', start);
    const size_t end = comma == std::string_view::npos ? trimmed.size()
                                                       : comma;
    const std::string_view field = trimmed.substr(start, end - start);
    const size_t lead = field.find_first_not_of(" \t");
    // 1-based column of the token's first non-space character (or of the
    // empty field itself).
    const size_t col = start + (lead == std::string_view::npos ? 0 : lead)
                       + 1;
    const std::string_view name = Trim(field);
    if (name.empty()) {
      return Status::InvalidArgument(
          StrFormat("col %zu: empty item name", col));
    }
    if (auto id = dictionary.Find(name); id.ok()) {
      ids.push_back(*id);
    } else {
      return Status::NotFound(
          StrFormat("col %zu: unknown item '%.*s'", col,
                    static_cast<int>(name.size()), name.data()));
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  query.items = Itemset(std::move(ids));
  return query;
}

void QueryService::SwapSnapshot(TcTreeSnapshot snapshot) {
  auto fresh = std::make_shared<const TcTreeSnapshot>(std::move(snapshot));
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(fresh);
  }
  if (cache_) cache_->Invalidate();
}

void QueryService::SwapSnapshot(TcTree tree) {
  SwapSnapshot(TcTreeSnapshot(std::move(tree)));
}

StatusOr<size_t> QueryService::ReloadFromFile(const std::string& path) {
  if (LooksLikeTcfiFile(path)) {
    auto mapped = MapTcTree(path);
    if (!mapped.ok()) return mapped.status();
    TcTreeSnapshot snap(std::move(*mapped));
    const size_t nodes = snap.num_nodes();
    SwapSnapshot(std::move(snap));
    return nodes;
  }
  auto tree = LoadTcTreeFromFile(path);
  if (!tree.ok()) return tree.status();
  const size_t nodes = tree->num_nodes();
  SwapSnapshot(std::move(*tree));
  return nodes;
}

size_t QueryService::ApplyUpdatedSnapshot(
    TcTree tree, const std::vector<ItemId>& changed_roots,
    const std::vector<ItemId>& dirty_items) {
  (void)changed_roots;  // a single-tree service always swaps its one tree
  auto fresh = std::make_shared<const TcTreeSnapshot>(std::move(tree));
  std::shared_ptr<const TcTreeSnapshot> old;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    old = std::move(snapshot_);
    snapshot_ = fresh;
  }
  // Install first, invalidate second. A query that read the *old*
  // snapshot also read the cache epoch before that (Execute's
  // discipline), so InvalidateItems' epoch bump makes its insert a
  // no-op; a query that reads the *new* snapshot computes answers the
  // retagged survivors are — by the dirty-set argument — identical to.
  if (cache_) cache_->InvalidateItems(dirty_items, old.get(), fresh);
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  return 1;
}

}  // namespace tcf
