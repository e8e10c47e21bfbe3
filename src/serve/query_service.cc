#include "serve/query_service.h"

#include <algorithm>
#include <cmath>
#include <latch>
#include <utility>

#include "core/cohesion.h"
#include "core/tcfi_format.h"
#include "util/failpoint.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tcf {
namespace {

/// Single-tree BFS retrieval order as a comparable key: results come
/// out depth by depth, and within a depth the commit order (per-parent
/// item-ascending over lexicographically ordered parents) is exactly
/// lexicographic in the full pattern.
bool BfsOrderLess(const PatternTruss& a, const PatternTruss& b) {
  if (a.pattern.size() != b.pattern.size()) {
    return a.pattern.size() < b.pattern.size();
  }
  return a.pattern < b.pattern;
}

ResultCacheStats AddCacheStats(ResultCacheStats total,
                               const ResultCacheStats& s) {
  total.hits += s.hits;
  total.misses += s.misses;
  total.inserts += s.inserts;
  total.evictions += s.evictions;
  total.invalidations += s.invalidations;
  total.partial_hits += s.partial_hits;
  total.composed_queries += s.composed_queries;
  total.admission_rejects += s.admission_rejects;
  total.entries += s.entries;
  total.bytes += s.bytes;
  total.capacity_bytes += s.capacity_bytes;
  return total;
}

using SnapshotPtr = std::shared_ptr<const TcTreeSnapshot>;

/// `whole` as `num_shards` shard snapshots: itself when there is one
/// shard, otherwise PartitionTcTree of its (materialized) tree.
std::vector<SnapshotPtr> SplitSnapshot(TcTreeSnapshot whole,
                                       size_t num_shards) {
  std::vector<SnapshotPtr> parts;
  if (num_shards <= 1) {
    parts.push_back(std::make_shared<const TcTreeSnapshot>(std::move(whole)));
    return parts;
  }
  std::vector<TcTree> trees = PartitionTcTree(
      std::move(whole).TakeTree(), HashShardPartitioner(), num_shards);
  parts.reserve(trees.size());
  for (TcTree& tree : trees) {
    parts.push_back(std::make_shared<const TcTreeSnapshot>(std::move(tree)));
  }
  return parts;
}

/// The `num_shards` shard snapshots of the index at `path`. With two or
/// more shards and every slice file present, each slice is mapped and
/// its shard metadata checked — all of them before the caller uses any,
/// so a bad slice never leaves a service half-opened or half-rolled.
/// Otherwise the whole file is mapped and split.
StatusOr<std::vector<SnapshotPtr>> MapShards(const std::string& path,
                                             size_t num_shards) {
  if (num_shards < 2 || !TcfiSlicesExist(path, num_shards)) {
    auto mapped = MapTcTree(path);
    if (!mapped.ok()) return mapped.status();
    return SplitSnapshot(TcTreeSnapshot(std::move(*mapped)), num_shards);
  }
  std::vector<SnapshotPtr> parts;
  parts.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const std::string slice = TcfiSlicePath(path, s, num_shards);
    auto mapped = MapTcTree(slice);
    if (!mapped.ok()) return mapped.status();
    if (mapped->shard_id() != s || mapped->num_shards() != num_shards) {
      return Status::Corruption(
          StrFormat("%s: slice carries shard %zu/%zu, expected %zu/%zu",
                    slice.c_str(), static_cast<size_t>(mapped->shard_id()),
                    static_cast<size_t>(mapped->num_shards()), s,
                    num_shards));
    }
    parts.push_back(std::make_shared<const TcTreeSnapshot>(std::move(*mapped)));
  }
  return parts;
}

/// Merges disjoint per-shard results into single-tree BFS retrieval
/// order; truncates at `max_results` when nonzero. Checks `deadline`
/// every kDeadlineCheckStride merged trusses (the k-way merge is the
/// scatter's own long loop); a part that already expired, or an expiry
/// mid-merge, marks the merged result `deadline_exceeded`.
std::shared_ptr<TcTreeQueryResult> MergeShardResults(
    const std::vector<QueryBackend::Result>& parts, size_t max_results,
    const Deadline& deadline) {
  auto merged = std::make_shared<TcTreeQueryResult>();
  size_t total = 0;
  for (const QueryBackend::Result& part : parts) {
    merged->visited_nodes += part->visited_nodes;
    merged->pruned_subtrees += part->pruned_subtrees;
    total += part->trusses.size();
    // An expired shard answer is partial work, which poisons the whole
    // merge — there is no complete merged answer to build from it.
    merged->deadline_exceeded =
        merged->deadline_exceeded || part->deadline_exceeded;
  }
  if (merged->deadline_exceeded) return merged;
  merged->trusses.reserve(max_results == 0 ? total
                                           : std::min(total, max_results));
  // K-way merge on the BFS-order key. Shard answer sets are disjoint
  // (each pattern has exactly one owner), so no tie-break is needed.
  const bool bounded = deadline.bounded();
  std::vector<size_t> pos(parts.size(), 0);
  while (max_results == 0 || merged->trusses.size() < max_results) {
    if (bounded && merged->trusses.size() % kDeadlineCheckStride == 0 &&
        deadline.IsExpired()) {
      merged->deadline_exceeded = true;
      return merged;
    }
    size_t best = parts.size();
    for (size_t k = 0; k < parts.size(); ++k) {
      if (pos[k] >= parts[k]->trusses.size()) continue;
      if (best == parts.size() ||
          BfsOrderLess(parts[k]->trusses[pos[k]],
                       parts[best]->trusses[pos[best]])) {
        best = k;
      }
    }
    if (best == parts.size()) break;
    merged->trusses.push_back(parts[best]->trusses[pos[best]++]);
  }
  // QueryTcTree collects and counts in lockstep, so after the merge
  // (and any max_results truncation) this is the single-tree value.
  merged->retrieved_nodes = merged->trusses.size();
  return merged;
}

}  // namespace

QueryService::QueryService(TcTreeSnapshot snapshot, ItemDictionary dictionary,
                           const QueryServiceOptions& options)
    : QueryService(SplitSnapshot(std::move(snapshot), options.num_shards),
                   std::move(dictionary), options) {}

QueryService::QueryService(std::vector<SnapshotPtr> parts,
                           ItemDictionary dictionary,
                           const QueryServiceOptions& options)
    : dictionary_(std::move(dictionary)),
      options_(options),
      instruments_(metrics_, options_, dictionary_),
      pool_(options.num_threads == 0 ? HardwareThreads()
                                     : options.num_threads),
      shards_(parts.size()),
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
      shard_queries_total_(metrics_.GetCounter(
          "tcf_shard_queries_total",
          "Per-shard sub-queries (one per query when unsharded)")),
      fanout_(metrics_.GetHistogram(
          "tcf_shard_fanout", "Shards probed per query (scatter width)")),
      shard_reload_ms_(metrics_.GetGauge(
          "tcf_shard_reload_ms",
          "Wall ms of the most recent single-shard snapshot swap")) {
  const size_t n = shards_.size();
  options_.num_shards = n;
  for (size_t s = 0; s < n; ++s) {
    Shard& shard = shards_[s];
    shard.snapshot = std::move(parts[s]);
    if (options_.cache_bytes > 0) {
      shard.cache = std::make_unique<ResultCache>(ResultCacheOptions{
          .capacity_bytes = std::max<size_t>(1, options_.cache_bytes / n),
          .num_shards = options_.cache_shards,
          .admission_bytes_per_node =
              options_.cache_admission_bytes_per_node});
    }
    shard.queries = &metrics_.GetCounter(
        StrFormat("tcf_shard%zu_queries_total", s),
        StrFormat("Sub-queries routed to shard %zu", s));
    shard.reload_ms = &metrics_.GetGauge(
        StrFormat("tcf_shard%zu_reload_ms", s),
        StrFormat("Wall ms of shard %zu's most recent snapshot swap", s));
    metrics_.RegisterCallback(
        StrFormat("tcf_shard%zu_nodes", s),
        StrFormat("TC-Tree nodes owned by shard %zu", s),
        MetricsRegistry::CallbackKind::kGauge,
        [this, s] { return static_cast<double>(snapshot(s)->num_nodes()); });
  }
  metrics_.GetGauge("tcf_shards", "Shard count of this backend")
      .Set(static_cast<double>(n));
  if (options_.cache_bytes > 0) {
    // Scrape-time cache residency and lifetime counters, summed over the
    // shard caches: the callbacks take the caches' lock stripes, a cost
    // paid per scrape, never per query. `this` outlives the registry's
    // renders (the registry is a member destroyed after the shards).
    metrics_.RegisterCallback(
        "tcf_cache_entries", "Resident result-cache entries",
        MetricsRegistry::CallbackKind::kGauge,
        [this] { return static_cast<double>(cache_stats().entries); });
    metrics_.RegisterCallback(
        "tcf_cache_bytes", "Resident result-cache bytes",
        MetricsRegistry::CallbackKind::kGauge,
        [this] { return static_cast<double>(cache_stats().bytes); });
    metrics_.RegisterCallback(
        "tcf_cache_evictions_total", "Result-cache entries evicted",
        MetricsRegistry::CallbackKind::kCounter,
        [this] { return static_cast<double>(cache_stats().evictions); });
    metrics_.RegisterCallback(
        "tcf_cache_partial_hits_total",
        "Cached sub-pattern answers reused as covers (cache view)",
        MetricsRegistry::CallbackKind::kCounter,
        [this] { return static_cast<double>(cache_stats().partial_hits); });
    metrics_.RegisterCallback(
        "tcf_cache_admission_rejects_total",
        "Inserts refused by cost-aware admission",
        MetricsRegistry::CallbackKind::kCounter, [this] {
          return static_cast<double>(cache_stats().admission_rejects);
        });
  }
  metrics_.RegisterCallback(
      "tcf_walk_us_ewma",
      "EWMA of full-walk miss CPU microseconds (composition gate input)",
      MetricsRegistry::CallbackKind::kGauge,
      [this] { return walk_us_ewma_.load(std::memory_order_relaxed); });
}

StatusOr<std::unique_ptr<QueryService>> QueryService::Open(
    const std::string& index_path, ItemDictionary dictionary,
    const QueryServiceOptions& options) {
  auto parts = MapShards(index_path, options.num_shards);
  if (!parts.ok()) return parts.status();
  return std::unique_ptr<QueryService>(
      new QueryService(std::move(*parts), std::move(dictionary), options));
}

std::shared_ptr<const TcTreeSnapshot> QueryService::snapshot(
    size_t shard) const {
  return shards_[shard].Current();
}

ResultCacheStats QueryService::cache_stats() const {
  ResultCacheStats total;
  for (const Shard& shard : shards_) {
    if (shard.cache) total = AddCacheStats(total, shard.cache->Stats());
  }
  return total;
}

ServeReport QueryService::Report() const {
  ServeReport report = instruments_.Report(cache_stats());
  report.shards = shards_.size();
  report.shard_queries = shard_queries_total_.Value();
  report.shard_reload_ms = shard_reload_ms_.Value();
  return report;
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

void QueryService::RecordWalkMicros(double micros) {
  double ewma = walk_us_ewma_.load(std::memory_order_relaxed);
  double next = ewma == 0 ? micros : 0.9 * ewma + 0.1 * micros;
  while (!walk_us_ewma_.compare_exchange_weak(
      ewma, next, std::memory_order_relaxed)) {
    next = ewma == 0 ? micros : 0.9 * ewma + 0.1 * micros;
  }
}

void QueryService::AdmitDerivedSubsets(
    ResultCache& cache, const Itemset& items, CohesionValue alpha_q,
    const Result& result, uint64_t epoch_seen,
    const std::shared_ptr<const TcTreeSnapshot>& snap) {
  if (!options_.cache_admit_derived || !ShouldCompose(items) ||
      items.size() > 8) {
    return;
  }
  for (const Itemset& sub : items.AllSubsetsMinusOne()) {
    if (sub.empty() || cache.Contains(sub, alpha_q)) continue;
    cache.Insert(sub, alpha_q,
                 std::make_shared<TcTreeQueryResult>(
                     DeriveSubResult(*result, sub)),
                 epoch_seen, snap, /*speculative=*/true);
  }
}

size_t QueryService::SoleOwner(const Itemset& items) const {
  const size_t n = shards_.size();
  if (n == 1 || items.empty()) return 0;
  const size_t owner = ShardOfItem(items[0]);
  for (ItemId item : items.items()) {
    if (ShardOfItem(item) != owner) return n;
  }
  return owner;
}

QueryService::Result QueryService::Execute(const ServeQuery& query,
                                           QueryTrace* trace) {
  WallTimer timer;
  // Tracing selects between one shared code path with spans and the
  // span-free fast path: a stack-local trace when the option is on, the
  // caller's when one is passed (EXPLAIN), nullptr otherwise.
  QueryTrace local_trace;
  QueryTrace* t =
      trace != nullptr ? trace
                       : (instruments_.ShouldTrace() ? &local_trace : nullptr);
  const CohesionValue alpha_q = QuantizeAlpha(query.alpha);
  instruments_.CountExecute();

  // Per-call traversal options: the service-wide knobs plus this
  // query's budget. The "walk.deadline" failpoint stamps an
  // already-expired budget so chaos tests exercise the genuine in-walk
  // cancellation path, not a shortcut.
  TcTreeQueryOptions walk_options = options_.query_options;
  walk_options.deadline = query.deadline;
  if (TCF_FAILPOINT("walk.deadline")) {
    walk_options.deadline = Deadline::Expired();
  }

  // A query whose items all live on one shard needs only that shard:
  // the others own no layer-1 item of q, so its answer — walk counters
  // included — already *is* the single-tree answer.
  size_t probed = 1;
  Result result;
  if (const size_t owner = SoleOwner(query.items); owner < shards_.size()) {
    shards_[owner].queries->Increment();
    double walk_us = -1;
    result = ExecuteOnShard(shards_[owner], query, alpha_q, walk_options, t,
                            &walk_us);
    if (walk_us >= 0) RecordWalkMicros(walk_us);
  } else {
    result = ExecuteScattered(query, alpha_q, walk_options, t, &probed);
  }
  shard_queries_total_.Increment(probed);
  fanout_.Record(static_cast<double>(probed));

  const double us = timer.Micros();
  if (t != nullptr) {
    t->deadline_exceeded = result->deadline_exceeded;
    t->shards_probed = probed;
    t->updates_applied = updates_applied();
    t->total_us = us;
  }
  if (result->deadline_exceeded) {
    // Partial work is not an answer: never cached, never derived from,
    // and not counted as a served query. The transport turns the flag
    // into ERR DeadlineExceeded.
    instruments_.RecordExpired(query, t);
  } else {
    instruments_.RecordAnswered(query, us, result->trusses.size(), t);
  }
  return result;
}

QueryService::Result QueryService::ExecuteOnShard(
    Shard& shard, const ServeQuery& query, CohesionValue alpha_q,
    const TcTreeQueryOptions& walk_options, QueryTrace* t, double* walk_us) {
  ResultCache* cache = shard.cache.get();
  if (cache != nullptr) {
    Result hit;
    {
      StageSpan probe(t, QueryStage::kCacheProbe);
      hit = cache->Lookup(query.items, alpha_q);
    }
    if (hit) {
      cache_hits_total_.Increment();
      if (t != nullptr) {
        t->cache_hit = true;
        t->trusses = hit->trusses.size();
      }
      return hit;
    }
    cache_misses_total_.Increment();
  }

  // Read the cache epoch *before* picking the snapshot: if a swap lands
  // while we compute, the epoch check in Insert drops our stale answer.
  const uint64_t epoch = cache != nullptr ? cache->epoch() : 0;
  const std::shared_ptr<const TcTreeSnapshot> snap = shard.Current();

  std::shared_ptr<TcTreeQueryResult> result;
  if (cache != nullptr && ShouldCompose(query.items) && !ShouldSampleWalk()) {
    // Partial reuse: compose the answer from cached subset answers plus
    // a residual probe. Covers are tagged with the snapshot they were
    // computed from, so a swap racing this miss can at worst leave the
    // plan empty — never mix answers from two trees.
    StageSpan compose(t, QueryStage::kCompose);
    const std::vector<ResultCache::CachedCover> covers =
        cache->LookupSubsets(query.items, alpha_q, snap.get());
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
    // walk never had; only clean walks are reported.
    if (!result->deadline_exceeded) *walk_us = walk_timer.Micros();
  }
  nodes_visited_total_.Increment(result->visited_nodes);
  prunes_total_.Increment(result->pruned_subtrees);
  if (t != nullptr) {
    t->visited_nodes = result->visited_nodes;
    t->retrieved_nodes = result->retrieved_nodes;
    t->pruned_subtrees = result->pruned_subtrees;
    t->trusses = result->trusses.size();
  }
  if (cache != nullptr && !result->deadline_exceeded) {
    cache->Insert(query.items, alpha_q, result, epoch, snap);
    AdmitDerivedSubsets(*cache, query.items, alpha_q, result, epoch, snap);
  }
  return result;
}

QueryService::Result QueryService::ExecuteScattered(
    const ServeQuery& query, CohesionValue alpha_q,
    const TcTreeQueryOptions& walk_options, QueryTrace* t, size_t* probed) {
  std::vector<uint8_t> owns(shards_.size(), 0);
  for (ItemId item : query.items.items()) owns[ShardOfItem(item)] = 1;
  std::vector<Result> parts;
  bool all_hit = true;
  bool any_composed = false;
  uint64_t covers = 0;
  // The gate samples a scattered query only when every probed shard
  // walked: a sum with a hit or a composed part in it is not the cost
  // of the whole walk.
  double walked_us = 0;
  bool all_walked = true;
  *probed = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!owns[s]) continue;
    ++*probed;
    shards_[s].queries->Increment();
    // A shard that ran out of budget ends the scatter: the remaining
    // shards would burn the same spent budget to produce more partial
    // work the merge must throw away anyway.
    if (!parts.empty() && parts.back()->deadline_exceeded) continue;
    QueryTrace sub;
    sub.sample_cpu = t != nullptr && t->sample_cpu;
    double walk_us = -1;
    parts.push_back(ExecuteOnShard(shards_[s], query, alpha_q, walk_options,
                                   t != nullptr ? &sub : nullptr, &walk_us));
    if (walk_us >= 0) {
      walked_us += walk_us;
    } else {
      all_walked = false;
    }
    if (t != nullptr) {
      for (size_t i = 0; i < kNumQueryStages; ++i) {
        t->stage_wall_us[i] += sub.stage_wall_us[i];
        t->stage_cpu_us[i] += sub.stage_cpu_us[i];
      }
      all_hit = all_hit && sub.cache_hit;
      any_composed = any_composed || sub.composed;
      covers += sub.covers_used;
    }
  }
  if (all_walked) RecordWalkMicros(walked_us);
  std::shared_ptr<TcTreeQueryResult> merged = MergeShardResults(
      parts, options_.query_options.max_results, query.deadline);
  if (t != nullptr) {
    t->cache_hit = all_hit;
    t->composed = any_composed;
    t->covers_used = covers;
    t->visited_nodes = merged->visited_nodes;
    t->retrieved_nodes = merged->retrieved_nodes;
    t->pruned_subtrees = merged->pruned_subtrees;
    t->trusses = merged->trusses.size();
  }
  return merged;
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

void QueryService::SwapShardSnapshot(size_t s, SnapshotPtr fresh,
                                     const std::vector<ItemId>* dirty_items) {
  WallTimer timer;
  Shard& shard = shards_[s];
  SnapshotPtr old;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    old = std::move(shard.snapshot);
    shard.snapshot = fresh;
  }
  // Install first, invalidate second. A query that read the *old*
  // snapshot also read the cache epoch before that (ExecuteOnShard's
  // discipline), so the invalidation's epoch bump makes its insert a
  // no-op; a query that reads the *new* snapshot computes answers the
  // retagged survivors are — by the dirty-set argument — identical to.
  if (shard.cache) {
    if (dirty_items != nullptr) {
      shard.cache->InvalidateItems(*dirty_items, old.get(), fresh);
    } else {
      shard.cache->Invalidate();
    }
  }
  const double ms = timer.Millis();
  shard.reload_ms->Set(ms);
  shard_reload_ms_.Set(ms);
}

void QueryService::SwapSnapshot(TcTreeSnapshot snapshot) {
  std::vector<SnapshotPtr> parts =
      SplitSnapshot(std::move(snapshot), shards_.size());
  for (size_t s = 0; s < parts.size(); ++s) {
    SwapShardSnapshot(s, std::move(parts[s]));
  }
}

void QueryService::SwapSnapshot(TcTree tree) {
  SwapSnapshot(TcTreeSnapshot(std::move(tree)));
}

StatusOr<size_t> QueryService::ReloadFromFile(const std::string& path) {
  auto parts = MapShards(path, shards_.size());
  if (!parts.ok()) return parts.status();
  size_t nodes = 0;
  for (size_t s = 0; s < parts->size(); ++s) {
    nodes += (*parts)[s]->num_nodes();
    SwapShardSnapshot(s, std::move((*parts)[s]));
  }
  return nodes;
}

size_t QueryService::ApplyUpdatedSnapshot(
    SnapshotPtr snapshot, const std::vector<ItemId>& changed_roots,
    const std::vector<ItemId>& dirty_items) {
  const size_t n = shards_.size();
  // One shard installs the snapshot as handed in, so the updater and the
  // shard share one tree. N >= 2 partitions a copy and leaves the whole
  // tree to the caller (the updater's next baseline).
  std::vector<SnapshotPtr> parts;
  if (n == 1) {
    parts.push_back(std::move(snapshot));
  } else {
    parts = SplitSnapshot(TcTreeSnapshot(snapshot->MaterializeTree()), n);
  }
  // Every pattern lives on the shard of its minimum item — its layer-1
  // ancestor's item — so a shard owning none of the changed roots got a
  // partition identical to what it is already serving (the partitioner
  // is deterministic and the arena subsequence it selects is unchanged):
  // skip it, snapshot and cache both. The one shard of an unsharded
  // service always swaps.
  std::vector<uint8_t> changed(n, n == 1 ? 1 : 0);
  for (ItemId root : changed_roots) changed[ShardOfItem(root)] = 1;
  size_t swapped = 0;
  for (size_t s = 0; s < n; ++s) {
    if (!changed[s]) continue;
    SwapShardSnapshot(s, std::move(parts[s]), &dirty_items);
    ++swapped;
  }
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  return swapped;
}

}  // namespace tcf
