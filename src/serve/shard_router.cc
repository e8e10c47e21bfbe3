#include "serve/shard_router.h"

#include <algorithm>
#include <latch>
#include <utility>

#include "core/tcfi_format.h"
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

/// Maps the `num_shards` slice files of `base` and checks each one's
/// shard metadata — all of them before the caller uses any, so a bad
/// slice never leaves a service half-opened or half-rolled.
StatusOr<std::vector<TcTreeSnapshot>> MapSlices(const std::string& base,
                                                size_t num_shards) {
  std::vector<TcTreeSnapshot> parts;
  parts.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const std::string path = TcfiSlicePath(base, s, num_shards);
    auto mapped = MapTcTree(path);
    if (!mapped.ok()) return mapped.status();
    if (mapped->shard_id() != s || mapped->num_shards() != num_shards) {
      return Status::Corruption(
          StrFormat("%s: slice carries shard %zu/%zu, expected %zu/%zu",
                    path.c_str(),
                    static_cast<size_t>(mapped->shard_id()),
                    static_cast<size_t>(mapped->num_shards()), s,
                    num_shards));
    }
    parts.emplace_back(std::move(*mapped));
  }
  return parts;
}

}  // namespace

ShardedQueryService::ShardedInit ShardedQueryService::MakeInit(
    TcTree tree, size_t num_shards,
    std::unique_ptr<ShardPartitioner> partitioner) {
  ShardedInit init;
  init.partitioner = partitioner ? std::move(partitioner)
                                 : std::make_unique<HashShardPartitioner>();
  if (num_shards == 0) num_shards = 1;
  std::vector<TcTree> parts =
      PartitionTcTree(std::move(tree), *init.partitioner, num_shards);
  init.parts.reserve(parts.size());
  for (TcTree& part : parts) {
    init.parts.emplace_back(std::move(part));
  }
  return init;
}

ShardedQueryService::ShardedQueryService(
    TcTree tree, ItemDictionary dictionary, size_t num_shards,
    const QueryServiceOptions& options,
    std::unique_ptr<ShardPartitioner> partitioner)
    : ShardedQueryService(
          MakeInit(std::move(tree), num_shards, std::move(partitioner)),
          std::move(dictionary), options) {}

ShardedQueryService::ShardedQueryService(
    std::vector<TcTreeSnapshot> parts, ItemDictionary dictionary,
    const QueryServiceOptions& options,
    std::unique_ptr<ShardPartitioner> partitioner)
    : ShardedQueryService(
          ShardedInit{std::move(parts),
                      partitioner
                          ? std::move(partitioner)
                          : std::make_unique<HashShardPartitioner>()},
          std::move(dictionary), options) {}

ShardedQueryService::ShardedQueryService(
    ShardedInit init, ItemDictionary dictionary,
    const QueryServiceOptions& options)
    : dictionary_(std::move(dictionary)),
      options_(options),
      instruments_(metrics_, options_, dictionary_),
      partitioner_(std::move(init.partitioner)),
      pool_(options.num_threads == 0 ? HardwareThreads()
                                     : options.num_threads),
      shard_queries_total_(metrics_.GetCounter(
          "tcf_shard_queries_total",
          "Per-shard sub-queries fanned out by the router")),
      fanout_(metrics_.GetHistogram(
          "tcf_shard_fanout", "Shards probed per query (scatter width)")),
      shard_reload_ms_(metrics_.GetGauge(
          "tcf_shard_reload_ms",
          "Wall ms of the most recent single-shard snapshot swap")) {
  const size_t num_shards = init.parts.size();

  // Each shard is a full QueryService with a private registry, cache,
  // and slow log. The router's pool provides ExecuteBatch fan-out;
  // per-shard pools stay at one thread so an N-shard service does not
  // spawn N * hardware_threads workers.
  QueryServiceOptions shard_options = options;
  shard_options.num_threads = 1;
  if (options.cache_bytes > 0) {
    shard_options.cache_bytes =
        std::max<size_t>(1, options.cache_bytes / num_shards);
  }
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<QueryService>(
        std::move(init.parts[s]), dictionary_, shard_options));
    per_shard_queries_.push_back(&metrics_.GetCounter(
        StrFormat("tcf_shard%zu_queries_total", s),
        StrFormat("Sub-queries routed to shard %zu", s)));
    per_shard_reload_ms_.push_back(&metrics_.GetGauge(
        StrFormat("tcf_shard%zu_reload_ms", s),
        StrFormat("Wall ms of shard %zu's most recent snapshot swap", s)));
    metrics_.RegisterCallback(
        StrFormat("tcf_shard%zu_nodes", s),
        StrFormat("TC-Tree nodes owned by shard %zu", s),
        MetricsRegistry::CallbackKind::kGauge, [this, s] {
          return static_cast<double>(shards_[s]->snapshot()->num_nodes());
        });
  }
  metrics_.GetGauge("tcf_shards", "Shard count of this backend")
      .Set(static_cast<double>(num_shards));
  if (options.cache_bytes > 0) {
    // Same names an unsharded QueryService exports, summed across the
    // shard caches, so dashboards and the run_checks smoke read both
    // backends identically.
    metrics_.RegisterCallback(
        "tcf_cache_entries", "Resident result-cache entries (all shards)",
        MetricsRegistry::CallbackKind::kGauge,
        [this] { return static_cast<double>(cache_stats().entries); });
    metrics_.RegisterCallback(
        "tcf_cache_bytes", "Resident result-cache bytes (all shards)",
        MetricsRegistry::CallbackKind::kGauge,
        [this] { return static_cast<double>(cache_stats().bytes); });
    metrics_.RegisterCallback(
        "tcf_cache_evictions_total",
        "Result-cache entries evicted (all shards)",
        MetricsRegistry::CallbackKind::kCounter,
        [this] { return static_cast<double>(cache_stats().evictions); });
    metrics_.RegisterCallback(
        "tcf_cache_partial_hits_total",
        "Cached sub-pattern answers reused as covers (all shards)",
        MetricsRegistry::CallbackKind::kCounter,
        [this] { return static_cast<double>(cache_stats().partial_hits); });
    metrics_.RegisterCallback(
        "tcf_cache_admission_rejects_total",
        "Inserts refused by cost-aware admission (all shards)",
        MetricsRegistry::CallbackKind::kCounter, [this] {
          return static_cast<double>(cache_stats().admission_rejects);
        });
  }
}

StatusOr<std::unique_ptr<ShardedQueryService>> ShardedQueryService::OpenSlices(
    const std::string& base, ItemDictionary dictionary, size_t num_shards,
    const QueryServiceOptions& options) {
  if (num_shards == 0) num_shards = 1;
  auto parts = MapSlices(base, num_shards);
  if (!parts.ok()) return parts.status();
  return std::make_unique<ShardedQueryService>(std::move(*parts),
                                               std::move(dictionary), options);
}

std::vector<size_t> ShardedQueryService::RelevantShards(
    const Itemset& items) const {
  const size_t n = shards_.size();
  std::vector<uint8_t> seen(n, 0);
  for (ItemId item : items.items()) {
    seen[partitioner_->ShardOf(item, n)] = 1;
  }
  std::vector<size_t> relevant;
  for (size_t s = 0; s < n; ++s) {
    if (seen[s]) relevant.push_back(s);
  }
  if (relevant.empty()) relevant.push_back(0);
  return relevant;
}

std::shared_ptr<TcTreeQueryResult> ShardedQueryService::MergeShardResults(
    const std::vector<Result>& parts, size_t max_results,
    const Deadline& deadline) {
  auto merged = std::make_shared<TcTreeQueryResult>();
  size_t total = 0;
  for (const Result& part : parts) {
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
  // The merge is the router's own long loop, so it honours the same
  // cooperative-cancellation stride as the shard walks.
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

ShardedQueryService::Result ShardedQueryService::Execute(
    const ServeQuery& query, QueryTrace* trace) {
  WallTimer timer;
  QueryTrace local_trace;
  QueryTrace* t =
      trace != nullptr ? trace
                       : (instruments_.ShouldTrace() ? &local_trace : nullptr);
  instruments_.CountExecute();
  const std::vector<size_t> relevant = RelevantShards(query.items);
  shard_queries_total_.Increment(relevant.size());
  fanout_.Record(static_cast<double>(relevant.size()));
  for (size_t s : relevant) per_shard_queries_[s]->Increment();

  Result result;
  if (relevant.size() == 1) {
    // Single-owner fast path: the other shards would contribute nothing
    // (no layer-1 item of theirs is in q), so the shard's answer — and
    // its walk counters — already *are* the single-tree answer.
    result = shards_[relevant[0]]->Execute(query, t);
  } else {
    std::vector<Result> parts;
    parts.reserve(relevant.size());
    bool all_hit = true;
    bool any_composed = false;
    uint64_t covers = 0;
    for (size_t s : relevant) {
      QueryTrace sub;
      sub.sample_cpu = t != nullptr && t->sample_cpu;
      QueryTrace* sub_trace = t != nullptr ? &sub : nullptr;
      parts.push_back(shards_[s]->Execute(query, sub_trace));
      if (t != nullptr) {
        for (size_t i = 0; i < kNumQueryStages; ++i) {
          t->stage_wall_us[i] += sub.stage_wall_us[i];
          t->stage_cpu_us[i] += sub.stage_cpu_us[i];
        }
        all_hit = all_hit && sub.cache_hit;
        any_composed = any_composed || sub.composed;
        covers += sub.covers_used;
      }
      // A shard that ran out of budget ends the scatter: the remaining
      // shards would burn the same spent budget to produce more partial
      // work the merge must throw away anyway.
      if (parts.back()->deadline_exceeded) break;
    }
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
    result = std::move(merged);
  }

  const double us = timer.Micros();
  if (t != nullptr) {
    t->deadline_exceeded = result->deadline_exceeded;
    t->shards_probed = relevant.size();
    t->updates_applied = updates_applied();
    t->total_us = us;
  }
  if (result->deadline_exceeded) {
    // Partial work, not an answer (see QueryService::Execute). The
    // single-owner shard already recorded its own deadline counter;
    // this one feeds the router's STATS/metrics, which is what the
    // transport reports.
    instruments_.RecordExpired(query, t);
  } else {
    instruments_.RecordAnswered(query, us, result->trusses.size(), t);
  }
  return result;
}

std::vector<ShardedQueryService::Result> ShardedQueryService::ExecuteBatch(
    const std::vector<ServeQuery>& queries) {
  std::vector<Result> results(queries.size());
  if (queries.empty()) return results;

  // Chunked fan-out with a per-batch latch, as in QueryService (the
  // per-shard pools are single-threaded; this pool is the parallelism).
  const size_t chunks = std::min(queries.size(), pool_.num_threads() * 4);
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

void ShardedQueryService::SwapShardSnapshot(size_t shard,
                                            TcTreeSnapshot shard_snapshot) {
  WallTimer timer;
  shards_[shard]->SwapSnapshot(std::move(shard_snapshot));
  const double ms = timer.Millis();
  per_shard_reload_ms_[shard]->Set(ms);
  shard_reload_ms_.Set(ms);
}

void ShardedQueryService::SwapShardSnapshot(size_t shard, TcTree shard_tree) {
  SwapShardSnapshot(shard, TcTreeSnapshot(std::move(shard_tree)));
}

StatusOr<size_t> ShardedQueryService::ReloadFromFile(const std::string& path) {
  // Slice-aware path: when every per-shard slice file is present, each
  // shard swaps its own mapped slice and no partitioning happens at
  // all.
  const size_t n = shards_.size();
  if (n > 0 && TcfiSlicesExist(path, n)) {
    auto parts = MapSlices(path, n);
    if (!parts.ok()) return parts.status();
    size_t nodes = 0;
    for (size_t s = 0; s < n; ++s) {
      nodes += (*parts)[s].num_nodes();
      SwapShardSnapshot(s, std::move((*parts)[s]));
    }
    return nodes;
  }
  // Whole-tree file: the base implementation materializes it and
  // funnels into the rolling SwapSnapshot.
  return QueryBackend::ReloadFromFile(path);
}

void ShardedQueryService::SwapSnapshot(TcTree tree) {
  std::vector<TcTree> parts =
      PartitionTcTree(std::move(tree), *partitioner_, shards_.size());
  // Rolling: one shard swaps at a time; the others keep serving their
  // current snapshot and cache. A query scattered mid-roll may compose
  // old-shard and new-shard answers — sound, because shard answer sets
  // are disjoint by item ownership and each shard's own answer is
  // single-snapshot (its epoch check drops stale inserts).
  for (size_t s = 0; s < shards_.size(); ++s) {
    SwapShardSnapshot(s, std::move(parts[s]));
  }
}

size_t ShardedQueryService::ApplyUpdatedSnapshot(
    TcTree tree, const std::vector<ItemId>& changed_roots,
    const std::vector<ItemId>& dirty_items) {
  std::vector<TcTree> parts =
      PartitionTcTree(std::move(tree), *partitioner_, shards_.size());
  // Every pattern lives on the shard of its minimum item — its layer-1
  // ancestor's item — so a shard owning none of the changed roots got a
  // partition identical to what it is already serving (the partitioner
  // is deterministic and the arena subsequence it selects is unchanged):
  // skip it entirely, snapshot and cache both. Changed shards roll one
  // at a time like SwapSnapshot, but invalidate only the dirty-item
  // entries instead of flushing.
  std::vector<char> changed(shards_.size(), 0);
  for (ItemId root : changed_roots) {
    changed[ShardOfItem(root)] = 1;
  }
  size_t swapped = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!changed[s]) continue;
    WallTimer timer;
    shards_[s]->ApplyUpdatedSnapshot(std::move(parts[s]), changed_roots,
                                     dirty_items);
    const double ms = timer.Millis();
    per_shard_reload_ms_[s]->Set(ms);
    shard_reload_ms_.Set(ms);
    ++swapped;
  }
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  return swapped;
}

ResultCacheStats ShardedQueryService::cache_stats() const {
  ResultCacheStats total;
  for (const auto& shard : shards_) {
    total = AddCacheStats(total, shard->cache_stats());
  }
  return total;
}

ServeReport ShardedQueryService::Report() const {
  ServeReport report = instruments_.Report(cache_stats());
  report.shards = shards_.size();
  report.shard_queries = shard_queries_total_.Value();
  report.shard_reload_ms = shard_reload_ms_.Value();
  return report;
}

}  // namespace tcf
