// Load generator for the concurrent serving layer (src/serve/).
//
// Builds a TC-Tree over the BK-like and SYN datasets, synthesizes a
// skewed query workload (random item subsets, a few hot queries repeated
// often — real traffic is never uniform), and measures QueryService
// throughput at increasing worker counts, cold cache vs. warm cache.
//
// With --zipf, the workload switches to overlapping itemsets (Zipf-hot
// theme cores under changing widenings — rare exact repeats, pervasive
// subset overlap) and the harness races the exact-only cache against
// the subset-composable one (QueryServiceOptions::cache_composition),
// reporting partial hits, composed queries, and admission rejects. The
// composable cache must win warm throughput here: exact keys almost
// never repeat, but the hot cores are reusable covers.
//
// With --net, the same workload additionally runs over loopback TCP:
// the epoll-driven TcpServer fronts the service and 1..--connections=C
// blocking `Client`s replay the queries as `alpha;item,...` protocol
// lines — pipelined `BATCH` exchanges of --depth=D queries per round
// trip (D=1 falls back to one request per round trip) — measuring both
// client-observed end-to-end throughput and the server's own aggregate
// QPS / p99 from its STATS view. After the connection ramp, a full pass at
// the top connection count runs with a mid-pass RELOAD to demonstrate
// that a snapshot swap under pipelined load drops zero responses.
//
// Expected shapes: warm throughput is a large multiple of cold (a hit is
// one shard lookup instead of a tree traversal); cold throughput scales
// with threads until the tree walk saturates memory bandwidth; the warm
// hit rate matches the workload's repetition rate. Network throughput
// rises with pipeline depth (framing amortizes the round trip) and
// holds as connections grow into the hundreds — idle connections cost
// the server a file descriptor, not a thread.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/tc_tree.h"
#include "core/tc_tree_update.h"
#include "core/tcfi_format.h"
#include "serve/client.h"
#include "serve/line_protocol.h"
#include "serve/query_backend.h"
#include "serve/query_service.h"
#include "serve/tcp_server.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace tcf;

namespace {

/// A workload of `n` queries over the network's active items: 20% of the
/// queries are draws from a pool of 32 "hot" queries, the rest are
/// unique random subsets (1-4 items) with alphas in [0, 0.3).
std::vector<ServeQuery> MakeWorkload(const DatabaseNetwork& net, size_t n,
                                     uint64_t seed) {
  const std::vector<ItemId> items = net.ActiveItems();
  Rng rng(seed);
  auto random_query = [&] {
    const size_t len = 1 + rng.NextUint64(4);
    std::vector<ItemId> subset;
    for (size_t i = 0; i < len; ++i) {
      subset.push_back(items[rng.NextUint64(items.size())]);
    }
    return ServeQuery{Itemset(std::move(subset)),
                      0.1 * static_cast<double>(rng.NextUint64(4)) / 1.33};
  };
  std::vector<ServeQuery> hot;
  for (size_t i = 0; i < 32; ++i) hot.push_back(random_query());
  std::vector<ServeQuery> workload;
  workload.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.2)) {
      workload.push_back(hot[rng.NextUint64(hot.size())]);
    } else {
      workload.push_back(random_query());
    }
  }
  return workload;
}

void RunDataset(const char* name, const DatabaseNetwork& net, size_t queries,
                bool csv, bool tracing, bench::JsonWriter* json) {
  TcTree tree = TcTree::Build(net, {.num_threads = HardwareThreads(),
                                    .max_nodes = 1000000});
  std::printf("\n--- serve on %s (tree: %zu nodes, %zu queries/pass) ---\n",
              name, tree.num_nodes(), queries);
  const std::vector<ServeQuery> workload = MakeWorkload(net, queries, 17);

  TextTable table({"threads", "cold q/s", "cold p99(us)", "warm q/s",
                   "warm p99(us)", "warm/cold", "warm hit rate"});
  const size_t thread_counts[] = {1, 2, 4, 8};
  for (size_t threads : thread_counts) {
    // A fresh service per thread count: empty cache, cold first pass.
    QueryServiceOptions options;
    options.num_threads = threads;
    options.tracing = tracing;
    QueryService service(tree, net.dictionary(), options);

    const ServeReport start = service.Report();
    service.ExecuteBatch(workload);
    const ServeReport after_cold = service.Report();
    const ServeReport cold = after_cold.Since(start);

    service.ExecuteBatch(workload);
    const ServeReport warm = service.Report().Since(after_cold);
    const ResultCacheStats& delta = warm.cache;

    table.AddRow({TextTable::Num(static_cast<uint64_t>(threads)),
                  TextTable::Num(cold.qps, 0), TextTable::Num(cold.p99_us, 1),
                  TextTable::Num(warm.qps, 0), TextTable::Num(warm.p99_us, 1),
                  TextTable::Num(warm.qps / std::max(cold.qps, 1.0), 2),
                  TextTable::Num(delta.HitRate(), 3)});

    // The JSON artifact keeps the widest row only — the one
    // docs/performance.md quotes and the one whose regression matters.
    if (json != nullptr && threads == thread_counts[3]) {
      const std::string p = "serve." + bench::KeySlug(name) + ".";
      json->Add(p + "threads", static_cast<uint64_t>(threads));
      json->Add(p + "cold_qps", cold.qps);
      json->Add(p + "cold_p50_us", cold.p50_us);
      json->Add(p + "cold_p99_us", cold.p99_us);
      json->Add(p + "warm_qps", warm.qps);
      json->Add(p + "warm_p50_us", warm.p50_us);
      json->Add(p + "warm_p99_us", warm.p99_us);
      json->Add(p + "warm_hit_rate", delta.HitRate());
    }
  }
  if (csv) table.PrintCsv(std::cout);
  else table.Print(std::cout);
}

/// An overlapping-itemset workload for --zipf: queries share Zipf-hot
/// "theme cores" (2-3 items), each widened with 0-2 extra skewed items,
/// and alphas land in 4 buckets. Exact repeats are rare — the same core
/// resurfaces under ever-different widenings — so an exact-match cache
/// stays cold while subset composition reuses the shared cores.
std::vector<ServeQuery> MakeZipfWorkload(const DatabaseNetwork& net, size_t n,
                                         uint64_t seed) {
  const std::vector<ItemId> items = net.ActiveItems();
  // Two generators so each keeps its own warm Zipf CDF: Rng caches one
  // table keyed on (n, s), and alternating item draws (n = |items|)
  // with core draws (n = 48) through one Rng would rebuild the O(n)
  // pow table nearly every call.
  Rng item_rng(seed);
  Rng core_rng(seed ^ 0x9e3779b97f4a7c15ull);
  auto zipf_item = [&] {
    return items[item_rng.NextZipf(items.size(), 1.07)];
  };
  std::vector<Itemset> cores;
  for (size_t i = 0; i < 48; ++i) {
    std::vector<ItemId> core;
    const size_t len = 2 + core_rng.NextUint64(2);
    for (size_t j = 0; j < len; ++j) core.push_back(zipf_item());
    cores.push_back(Itemset(std::move(core)));
  }

  std::vector<ServeQuery> workload;
  workload.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Itemset q = cores[core_rng.NextZipf(cores.size(), 1.07)];
    const size_t widen = core_rng.NextUint64(3);
    for (size_t j = 0; j < widen; ++j) q = q.Union(zipf_item());
    workload.push_back(
        {std::move(q), 0.05 * static_cast<double>(core_rng.NextUint64(4))});
  }
  return workload;
}

/// --zipf: exact-only cache vs. subset-composable cache over the
/// overlapping workload above. The warmup pass fills the cache; the
/// measured pass replays *fresh* queries (same hot cores, new
/// widenings), so the exact-match cache almost never hits while the
/// composable cache assembles answers from the cores it has already
/// paid for. This "fresh q/s" column — throughput in the regime where
/// exact-match caching misses — is the number docs/performance.md
/// quotes, and the composable cache must win it with partial hits > 0.
void RunZipfDataset(const char* name, const DatabaseNetwork& net,
                    size_t queries, bool csv, bool tracing,
                    bench::JsonWriter* json) {
  TcTree tree = TcTree::Build(net, {.num_threads = HardwareThreads(),
                                    .max_nodes = 1000000});
  std::printf(
      "\n--- serve --zipf on %s (tree: %zu nodes, %zu queries/pass) ---\n",
      name, tree.num_nodes(), queries);
  // One stream, two halves: the halves share cores (overlap) but almost
  // no exact keys, which is exactly the traffic shape that defeats an
  // exact-match cache.
  const std::vector<ServeQuery> stream =
      MakeZipfWorkload(net, 2 * queries, 17);
  const std::vector<ServeQuery> warmup(stream.begin(),
                                       stream.begin() + queries);
  const std::vector<ServeQuery> fresh(stream.begin() + queries,
                                      stream.end());

  TextTable table({"cache", "warmup q/s", "fresh q/s", "exact hit rate",
                   "partial hits", "composed", "adm rejects"});
  double fresh_qps[2] = {0, 0};
  uint64_t partial_hits = 0;
  uint64_t composed = 0;
  for (int composable = 0; composable < 2; ++composable) {
    QueryServiceOptions options;
    options.num_threads = 4;
    // Roomy cache: this run compares reuse strategies, not eviction
    // behavior under memory pressure.
    options.cache_bytes = size_t{256} << 20;
    options.cache_composition = composable != 0;
    options.cache_admit_derived = composable != 0;
    options.tracing = tracing;
    QueryService service(tree, net.dictionary(), options);

    const ServeReport start = service.Report();
    service.ExecuteBatch(warmup);
    const ServeReport after_warmup = service.Report();
    const ServeReport warm = after_warmup.Since(start);

    service.ExecuteBatch(fresh);
    const ServeReport measured = service.Report().Since(after_warmup);
    const ResultCacheStats& delta = measured.cache;

    fresh_qps[composable] = measured.qps;
    if (composable) {
      partial_hits = delta.partial_hits;
      composed = delta.composed_queries;
    }
    table.AddRow({composable ? "composable" : "exact-only",
                  TextTable::Num(warm.qps, 0),
                  TextTable::Num(measured.qps, 0),
                  TextTable::Num(delta.HitRate(), 3),
                  TextTable::Num(delta.partial_hits),
                  TextTable::Num(delta.composed_queries),
                  TextTable::Num(delta.admission_rejects)});
  }
  if (csv) table.PrintCsv(std::cout);
  else table.Print(std::cout);
  if (json != nullptr) {
    const std::string p = "serve_zipf." + bench::KeySlug(name) + ".";
    json->Add(p + "fresh_qps_exact", fresh_qps[0]);
    json->Add(p + "fresh_qps_composable", fresh_qps[1]);
    json->Add(p + "partial_hits", partial_hits);
    json->Add(p + "composed", composed);
  }
  // Two acceptable outcomes, decided by the work-aware gate
  // (QueryServiceOptions::cache_compose_min_walk_us): where walks are
  // expensive the gate engages and composition must WIN with partial
  // hits; where walks are already nearly free the gate must keep reuse
  // off and stay within noise of exact-only.
  const double ratio = fresh_qps[0] > 0 ? fresh_qps[1] / fresh_qps[0] : 0.0;
  if (composed > queries / 100) {
    std::printf("partial reuse (gate engaged): %s — fresh-traffic partial "
                "hits %llu, composable vs exact-only on fresh queries: "
                "%.2fx\n",
                partial_hits > 0 && ratio > 1.0 ? "OK" : "FAIL",
                static_cast<unsigned long long>(partial_hits), ratio);
  } else {
    std::printf("partial reuse (gate off — walks too cheap to compose): "
                "%s — composable within %.2fx of exact-only\n",
                ratio >= 0.9 ? "OK" : "FAIL", ratio);
  }
}

/// --shards: QPS/p99 per shard count over the Zipf workload (one tree,
/// partitioned N ways; scatter-gather merge per query). The shards=1
/// row serves the tree whole — the baseline the scatter overhead is
/// measured against. Every row must return the same truss count (the
/// answers are property-tested equal in tests/shard_router_test.cc;
/// this is the belt-and-braces smoke).
void RunShardDataset(const char* name, const DatabaseNetwork& net,
                     size_t queries, bool csv, bool tracing,
                     bench::JsonWriter* json) {
  TcTree tree = TcTree::Build(net, {.num_threads = HardwareThreads(),
                                    .max_nodes = 1000000});
  std::printf(
      "\n--- serve --shards on %s (tree: %zu nodes, %zu queries/pass) ---\n",
      name, tree.num_nodes(), queries);
  const std::vector<ServeQuery> stream =
      MakeZipfWorkload(net, 2 * queries, 17);
  const std::vector<ServeQuery> cold(stream.begin(),
                                     stream.begin() + queries);
  const std::vector<ServeQuery> fresh(stream.begin() + queries,
                                      stream.end());

  TextTable table({"shards", "cold q/s", "fresh q/s", "fresh p99(us)",
                   "fan-out", "trusses"});
  uint64_t expect_trusses = 0;
  bool parity_ok = true;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    QueryServiceOptions options;
    options.num_threads = 4;
    options.cache_bytes = size_t{256} << 20;
    options.num_shards = shards;
    options.tracing = tracing;
    auto backend =
        std::make_unique<QueryService>(tree, net.dictionary(), options);

    const ServeReport start = backend->Report();
    backend->ExecuteBatch(cold);
    const ServeReport after_cold = backend->Report();
    const ServeReport cold_report = after_cold.Since(start);

    backend->ExecuteBatch(fresh);
    const ServeReport report = backend->Report().Since(after_cold);

    const uint64_t trusses =
        cold_report.trusses_returned + report.trusses_returned;
    if (shards == 1) expect_trusses = trusses;
    if (trusses != expect_trusses) parity_ok = false;
    const double fanout =
        report.queries > 0 ? static_cast<double>(report.shard_queries) /
                                 static_cast<double>(report.queries)
                           : 1.0;
    table.AddRow({shards == 1 ? "1 (unsharded)" : TextTable::Num(shards),
                  TextTable::Num(cold_report.qps, 0),
                  TextTable::Num(report.qps, 0),
                  TextTable::Num(report.p99_us, 1), TextTable::Num(fanout, 2),
                  TextTable::Num(trusses)});
    if (json != nullptr) {
      const std::string p = "serve_shards." + bench::KeySlug(name) + ".";
      json->Add(p + StrFormat("fresh_qps_shards%zu", shards), report.qps);
      json->Add(p + StrFormat("fresh_p99_us_shards%zu", shards),
                report.p99_us);
    }
  }
  if (csv) table.PrintCsv(std::cout);
  else table.Print(std::cout);
  std::printf("shard parity (same trusses at every shard count): %s\n",
              parity_ok ? "OK" : "FAIL");
}

/// Bytes on disk, or 0 when the file cannot be stat'ed.
uint64_t FileSizeBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

/// Resident set size in MiB (/proc on Linux, 0 elsewhere — the RSS
/// column then reads 0 and the table still prints).
double ResidentMb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
#else
  return 0;
#endif
}

/// --reload: snapshot swap latency of the zero-copy TCFI index. One
/// tree is saved as TCFI and a live QueryService reloads it through
/// ReloadFromFile — exactly what the RELOAD verb and `--watch` execute
/// — so the measured median is the serving-visible swap latency. The
/// mmap path builds no heap arena (header + checksum validation, then
/// pointer casts into the mapping); docs/performance.md quotes this
/// table and CI gates the exact node-count keys. The RSS column shows
/// the replica economics: extra mapped replicas of one
/// already-validated artifact fault their pages from the shared page
/// cache (marginal RSS ~0), where every owned replica pays the full
/// heap arena (`owned_heap_mb`) again.
void RunReloadDataset(const char* name, const DatabaseNetwork& net, bool csv,
                      bool tracing, bench::JsonWriter* json) {
  TcTree tree = TcTree::Build(net, {.num_threads = HardwareThreads(),
                                    .max_nodes = 1000000});
  std::printf("\n--- serve --reload on %s (tree: %zu nodes) ---\n", name,
              tree.num_nodes());
  const std::string base =
      StrFormat("/tmp/bench_serve_reload_%d_%s",
                static_cast<int>(::getpid()), bench::KeySlug(name).c_str());
  const std::string tcfi = base + ".tcfi";
  if (Status s = SaveTcTreeBinary(tree, tcfi); !s.ok()) {
    std::fprintf(stderr, "bench_serve: save tcfi index: %s\n",
                 s.ToString().c_str());
    return;
  }

  QueryServiceOptions options;
  options.tracing = tracing;
  QueryService service(tree, net.dictionary(), options);

  constexpr int kRepeats = 7;
  auto median = [](std::vector<double> ms) {
    std::sort(ms.begin(), ms.end());
    return ms.empty() ? 0.0 : ms[ms.size() / 2];
  };
  std::vector<double> reload_samples;
  for (int r = 0; r < kRepeats; ++r) {
    WallTimer t;
    auto nodes = service.ReloadFromFile(tcfi);
    if (!nodes.ok()) {
      std::fprintf(stderr, "bench_serve: reload %s: %s\n", tcfi.c_str(),
                   nodes.status().ToString().c_str());
      return;
    }
    reload_samples.push_back(t.Millis());
  }
  const double mmap_ms = median(std::move(reload_samples));

  // Map-only latency: MapTcTree alone (validate + cast), without the
  // service's swap/invalidation. This is the O(1)-per-node claim.
  std::vector<double> map_samples;
  for (int r = 0; r < kRepeats; ++r) {
    WallTimer t;
    auto mapped = MapTcTree(tcfi);
    if (!mapped.ok()) {
      std::fprintf(stderr, "bench_serve: map %s: %s\n", tcfi.c_str(),
                   mapped.status().ToString().c_str());
      return;
    }
    map_samples.push_back(t.Millis());
  }
  const double map_ms = median(std::move(map_samples));

  // Replica economics: extra maps of an artifact the first open already
  // validated (so no checksum pass touching every page — pages fault in
  // on demand from the shared page cache).
  const double heap_mb =
      static_cast<double>(tree.MemoryBytes()) / (1 << 20);
  constexpr size_t kReplicas = 8;
  double rss_per_map_mb = 0;
  {
    std::vector<MappedTcTree> replicas;
    replicas.reserve(kReplicas);
    const double before = ResidentMb();
    for (size_t i = 0; i < kReplicas; ++i) {
      auto mapped = MapTcTree(
          tcfi, {.verify_checksums = false, .validate_structure = false});
      if (!mapped.ok()) break;
      replicas.push_back(std::move(*mapped));
    }
    rss_per_map_mb =
        std::max(0.0, (ResidentMb() - before) /
                          static_cast<double>(kReplicas));
  }

  const double tcfi_mb =
      static_cast<double>(FileSizeBytes(tcfi)) / (1 << 20);

  TextTable table({"path", "file MiB", "p50(ms)", "RSS/replica MiB"});
  table.AddRow({"tcfi mmap swap", TextTable::Num(tcfi_mb, 2),
                TextTable::Num(mmap_ms, 3),
                TextTable::Num(rss_per_map_mb, 2)});
  table.AddRow({"tcfi map only", TextTable::Num(tcfi_mb, 2),
                TextTable::Num(map_ms, 3),
                TextTable::Num(rss_per_map_mb, 2)});
  if (csv) table.PrintCsv(std::cout);
  else table.Print(std::cout);
  std::printf("owned heap arena per materialized replica: %.2f MiB\n",
              heap_mb);

  if (json != nullptr) {
    const std::string p = "serve_reload." + bench::KeySlug(name) + ".";
    json->Add(p + "nodes", static_cast<uint64_t>(tree.num_nodes()));
    json->Add(p + "mmap_reload_ms", mmap_ms);
    json->Add(p + "mmap_map_ms", map_ms);
    json->Add(p + "tcfi_file_mb", tcfi_mb);
    json->Add(p + "owned_heap_mb", heap_mb);
    json->Add(p + "rss_per_map_mb", rss_per_map_mb);
  }
  std::remove(tcfi.c_str());
}

/// Randomized streaming-update batch for --churn: mostly transaction
/// inserts over existing vocabulary, a minority of edge inserts — the
/// shape the UPDATE verb carries in production.
NetworkUpdate RandomChurnBatch(Rng& rng, const DatabaseNetwork& net,
                               size_t ops) {
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

/// --churn: mixed query/update load. Four reader threads replay the
/// skewed workload against a warm composing cache while an IndexUpdater
/// applies randomized update batches through ApplyUpdatedSnapshot
/// (targeted invalidation, shard-skipping rolling swaps). Reported per
/// shard count: query q/s and p99 with no updates in flight (base) vs
/// under churn, plus freshness latency — the wall time from Apply to
/// the new snapshot serving — p50/p99. The churn p99 should stay within
/// small multiples of base (updates rebuild off the read path and swap
/// epoch-safely), and freshness should sit at incremental-replay cost,
/// far under a from-scratch build.
void RunChurnDataset(const char* name,
                     const std::function<DatabaseNetwork()>& make_net,
                     size_t queries, size_t update_batches, bool csv,
                     bool tracing, bench::JsonWriter* json) {
  TextTable table({"shards", "base q/s", "base p99(us)", "churn q/s",
                   "churn p99(us)", "fresh p50(ms)", "fresh p99(ms)",
                   "rebuilds"});
  bool printed_header = false;
  // Depth-capped build: churn measures the *incremental* replay, and a
  // node-budget-truncated tree (SYN overflows 1M nodes even at small
  // scales) would force the full-rebuild fallback on every batch. A
  // complete depth-3 index keeps the replay path honest on both
  // datasets; the updater below must replay with identical options.
  const TcTreeOptions build_options{.num_threads = HardwareThreads(),
                                    .max_depth = 3};
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    DatabaseNetwork net = make_net();
    TcTree tree = TcTree::Build(net, build_options);
    if (!printed_header) {
      std::printf(
          "\n--- serve --churn on %s (tree: %zu nodes, %zu queries/pass, "
          "%zu update batches) ---\n",
          name, tree.num_nodes(), queries, update_batches);
      printed_header = true;
    }
    QueryServiceOptions options;
    options.num_threads = 4;
    options.cache_bytes = size_t{256} << 20;
    options.cache_composition = true;
    options.cache_admit_derived = true;
    options.num_shards = shards;
    options.tracing = tracing;
    auto backend =
        std::make_unique<QueryService>(tree, net.dictionary(), options);
    const std::vector<ServeQuery> workload = MakeWorkload(net, queries, 17);

    // Base pass: the same warm-cache traffic with no updates in flight.
    backend->ExecuteBatch(workload);
    const ServeReport warmed = backend->Report();
    backend->ExecuteBatch(workload);
    const ServeReport base = backend->Report().Since(warmed);

    // The replay MUST use the options the serving tree was built with;
    // an unbounded replay of a capped build would re-enumerate the full
    // pattern space.
    IndexUpdater updater(
        std::move(net), std::move(tree),
        [&backend](std::shared_ptr<const TcTreeSnapshot> snap,
                   const std::vector<ItemId>& changed_roots,
                   const std::vector<ItemId>& dirty_items) {
          return backend->ApplyUpdatedSnapshot(std::move(snap), changed_roots,
                                               dirty_items);
        },
        build_options);

    std::atomic<bool> stop{false};
    // The cache stays warm: survivors keep serving.
    const ServeReport before_churn = backend->Report();
    std::vector<std::thread> readers;
    for (size_t r = 0; r < 4; ++r) {
      readers.emplace_back([&, r] {
        size_t i = r;
        while (!stop.load(std::memory_order_acquire)) {
          (void)backend->Execute(workload[i % workload.size()]);
          i += 4;
        }
      });
    }

    std::vector<double> freshness;
    freshness.reserve(update_batches);
    Rng rng(29);
    uint64_t rebuilds = 0;
    for (size_t b = 0; b < update_batches; ++b) {
      NetworkUpdate u = RandomChurnBatch(rng, updater.network(), 4);
      auto outcome = updater.Apply(std::move(u));
      if (!outcome.ok()) {
        std::fprintf(stderr, "bench_serve: churn batch %zu: %s\n", b,
                     outcome.status().ToString().c_str());
        continue;
      }
      freshness.push_back(outcome->apply_ms);
      if (outcome->stats.full_rebuild) ++rebuilds;
      // A beat of query-only traffic between batches, so the measured
      // p99 covers mixed load rather than back-to-back swaps.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true, std::memory_order_release);
    for (auto& th : readers) th.join();
    const ServeReport churn = backend->Report().Since(before_churn);

    std::sort(freshness.begin(), freshness.end());
    const double fresh_p50 =
        freshness.empty() ? 0 : freshness[freshness.size() / 2];
    const double fresh_p99 =
        freshness.empty()
            ? 0
            : freshness[std::min(
                  freshness.size() - 1,
                  static_cast<size_t>(0.99 * (freshness.size() - 1) + 0.5))];

    table.AddRow({shards == 1 ? "1 (unsharded)" : TextTable::Num(shards),
                  TextTable::Num(base.qps, 0), TextTable::Num(base.p99_us, 1),
                  TextTable::Num(churn.qps, 0),
                  TextTable::Num(churn.p99_us, 1),
                  TextTable::Num(fresh_p50, 2), TextTable::Num(fresh_p99, 2),
                  TextTable::Num(rebuilds)});
    if (json != nullptr) {
      const std::string p = StrFormat(
          "serve_churn.%s.shards%zu.", bench::KeySlug(name).c_str(), shards);
      json->Add(p + "base_qps", base.qps);
      json->Add(p + "base_p99_us", base.p99_us);
      json->Add(p + "churn_qps", churn.qps);
      json->Add(p + "churn_p99_us", churn.p99_us);
      json->Add(p + "fresh_p50_ms", fresh_p50);
      json->Add(p + "fresh_p99_ms", fresh_p99);
    }
  }
  if (csv) table.PrintCsv(std::cout);
  else table.Print(std::cout);
}

/// Client-observed outcome of one timed network pass.
struct PassResult {
  double qps = 0;        // queries answered / wall seconds
  double p99_rt_us = 0;  // p99 of round-trip latency (one RT = one
                         // exchange: a single query, or a whole batch)
  size_t answered = 0;   // query responses received (OK or carried ERR)
  size_t failed = 0;     // transport/protocol failures
};

/// One timed network pass: `lines[i]` belongs to connection i % n; each
/// connection is a blocking client on its own thread, sending its slice
/// in pipelined BATCH exchanges of `depth` queries (depth 1 = the
/// unpipelined request/response loop).
PassResult NetworkPass(uint16_t port, const std::vector<std::string>& lines,
                       size_t connections, size_t depth) {
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::thread> threads;
  std::atomic<size_t> failed{0};
  std::atomic<size_t> answered{0};
  WallTimer wall;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        std::fprintf(stderr, "bench_serve: connection %zu: %s\n", c,
                     client.status().ToString().c_str());
        ++failed;
        return;
      }
      std::vector<std::string> mine;
      for (size_t i = c; i < lines.size(); i += connections) {
        mine.push_back(lines[i]);
      }
      for (size_t begin = 0; begin < mine.size(); begin += depth) {
        const size_t end = std::min(mine.size(), begin + depth);
        WallTimer t;
        if (depth == 1) {
          auto trusses = (*client)->Query(mine[begin]);
          if (!trusses.ok()) {
            std::fprintf(stderr, "bench_serve: connection %zu: %s\n", c,
                         trusses.status().ToString().c_str());
            ++failed;
            return;
          }
          ++answered;
        } else {
          const std::vector<std::string> chunk(mine.begin() + begin,
                                               mine.begin() + end);
          auto items = (*client)->Batch(chunk);
          if (!items.ok()) {
            std::fprintf(stderr, "bench_serve: connection %zu: %s\n", c,
                         items.status().ToString().c_str());
            ++failed;
            return;
          }
          for (const Client::BatchItem& item : *items) {
            if (!item.status.ok()) {
              std::fprintf(stderr, "bench_serve: connection %zu: %s\n", c,
                           item.status.ToString().c_str());
              ++failed;
              return;
            }
            ++answered;
          }
        }
        latencies[c].push_back(t.Micros());
      }
      (void)(*client)->Quit();
    });
  }
  for (auto& th : threads) th.join();
  const double seconds = wall.Seconds();
  if (failed > 0) {
    // Partial passes would print plausible but wrong q/s; say so loudly.
    std::fprintf(stderr,
                 "bench_serve: %zu failures across %zu connections; this "
                 "pass's numbers cover only the surviving traffic\n",
                 failed.load(), connections);
  }

  PassResult result;
  result.answered = answered.load();
  result.failed = failed.load();
  std::vector<double> all;
  for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  if (all.empty()) return result;
  std::sort(all.begin(), all.end());
  result.qps = seconds > 0
                   ? static_cast<double>(result.answered) / seconds
                   : 0;
  result.p99_rt_us = all[std::min(
      all.size() - 1, static_cast<size_t>(0.99 * (all.size() - 1) + 0.5))];
  return result;
}

/// The connection ramp: 1, 2, 4, ... doubling, always ending exactly on
/// `max` (so --connections=1000 measures 1000, not 512).
std::vector<size_t> ConnectionRamp(size_t max) {
  std::vector<size_t> ramp;
  for (size_t c = 1; c < max; c *= 2) ramp.push_back(c);
  ramp.push_back(max);
  return ramp;
}

/// Network mode: the same skewed workload, replayed as protocol lines
/// over loopback TCP at increasing connection counts. Prints the
/// client-observed table, the server-side aggregate (STATS view) table,
/// and finishes with a RELOAD-under-load pass at the top connection
/// count that must drop zero responses.
void RunNetworkDataset(const char* name, const DatabaseNetwork& net,
                       size_t queries, size_t max_connections, size_t depth,
                       bool csv, bool tracing, bench::JsonWriter* json) {
  TcTree tree = TcTree::Build(net, {.num_threads = HardwareThreads(),
                                    .max_nodes = 1000000});
  std::printf(
      "\n--- serve --net on %s (tree: %zu nodes, %zu queries/pass, "
      "batch depth %zu) ---\n",
      name, tree.num_nodes(), queries, depth);
  const std::vector<ServeQuery> workload = MakeWorkload(net, queries, 17);
  std::vector<std::string> lines;
  lines.reserve(workload.size());
  for (const ServeQuery& q : workload) {
    lines.push_back(EncodeQueryLine(net.dictionary(), q));
  }

  TextTable client_table({"conns", "cold q/s", "cold p99 rt(us)",
                          "warm q/s", "warm p99 rt(us)", "warm hit rate",
                          "KiB in", "KiB out"});
  // Aggregate QPS and p99 from the server's own STATS view (its
  // registry fold), so performance.md numbers come from one command.
  TextTable server_table({"conns", "cold srv q/s", "cold srv p99(us)",
                          "warm srv q/s", "warm srv p99(us)"});
  for (size_t connections : ConnectionRamp(max_connections)) {
    QueryServiceOptions service_options;
    service_options.tracing = tracing;
    QueryService service(tree, net.dictionary(), service_options);
    TcpServerOptions options;
    options.num_threads = HardwareThreads();
    // All C clients connect in one burst; a backlog smaller than that
    // drops SYNs and the ~1s retransmit pollutes every number.
    options.backlog = static_cast<int>(std::max<size_t>(64, connections));
    TcpServer server(service, options);
    if (Status s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "bench_serve: %s\n", s.ToString().c_str());
      return;
    }

    const ServeReport start = service.Report();
    const PassResult cold = NetworkPass(server.port(), lines, connections,
                                        depth);
    const ServeReport after_cold = service.Report();
    const ServeReport cold_srv = after_cold.Since(start);

    const PassResult warm = NetworkPass(server.port(), lines, connections,
                                        depth);
    const ServeReport warm_srv = service.Report().Since(after_cold);
    const ResultCacheStats& delta = warm_srv.cache;

    client_table.AddRow({TextTable::Num(static_cast<uint64_t>(connections)),
                         TextTable::Num(cold.qps, 0),
                         TextTable::Num(cold.p99_rt_us, 1),
                         TextTable::Num(warm.qps, 0),
                         TextTable::Num(warm.p99_rt_us, 1),
                         TextTable::Num(delta.HitRate(), 3),
                         TextTable::Num(warm_srv.bytes_in / 1024.0, 1),
                         TextTable::Num(warm_srv.bytes_out / 1024.0, 1)});
    server_table.AddRow({TextTable::Num(static_cast<uint64_t>(connections)),
                         TextTable::Num(cold_srv.qps, 0),
                         TextTable::Num(cold_srv.p99_us, 1),
                         TextTable::Num(warm_srv.qps, 0),
                         TextTable::Num(warm_srv.p99_us, 1)});
    if (json != nullptr && connections == max_connections) {
      const std::string p = "serve_net." + bench::KeySlug(name) + ".";
      json->Add(p + "connections", static_cast<uint64_t>(connections));
      json->Add(p + "cold_qps", cold.qps);
      json->Add(p + "warm_qps", warm.qps);
      json->Add(p + "warm_p99_rt_us", warm.p99_rt_us);
      json->Add(p + "srv_warm_qps", warm_srv.qps);
      json->Add(p + "srv_warm_p50_us", warm_srv.p50_us);
      json->Add(p + "srv_warm_p99_us", warm_srv.p99_us);
    }
    server.Shutdown();
  }
  std::printf("client-observed (one rt = %zu quer%s):\n", depth,
              depth == 1 ? "y" : "ies");
  if (csv) client_table.PrintCsv(std::cout);
  else client_table.Print(std::cout);
  std::printf("server-side aggregate (STATS view):\n");
  if (csv) server_table.PrintCsv(std::cout);
  else server_table.Print(std::cout);

  // RELOAD under pipelined load at the top connection count: save the
  // index, replay the workload, roll the (identical) index in mid-pass.
  // Every in-flight and subsequent query must still be answered — the
  // acceptance criterion is zero dropped responses.
  const std::string index_path =
      StrFormat("/tmp/bench_serve_reload_%d.idx",
                static_cast<int>(::getpid()));
  if (Status s = SaveTcTreeBinary(tree, index_path); !s.ok()) {
    std::fprintf(stderr, "bench_serve: save index: %s\n",
                 s.ToString().c_str());
    return;
  }
  QueryServiceOptions reload_service_options;
  reload_service_options.tracing = tracing;
  QueryService service(tree, net.dictionary(), reload_service_options);
  TcpServerOptions options;
  options.num_threads = HardwareThreads();
  options.backlog = static_cast<int>(std::max<size_t>(64, max_connections));
  TcpServer server(service, options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "bench_serve: %s\n", s.ToString().c_str());
    return;
  }
  PassResult reload_pass;
  std::thread pass_thread([&] {
    reload_pass = NetworkPass(server.port(), lines, max_connections, depth);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  size_t reloads = 0;
  {
    auto admin = Client::Connect("127.0.0.1", server.port());
    if (admin.ok()) {
      auto nodes = (*admin)->Reload(index_path);
      if (nodes.ok()) ++reloads;
      else
        std::fprintf(stderr, "bench_serve: reload: %s\n",
                     nodes.status().ToString().c_str());
      (void)(*admin)->Quit();
    }
  }
  pass_thread.join();
  server.Shutdown();
  std::remove(index_path.c_str());
  std::printf(
      "reload under load (%zu conns): %zu/%zu responses, %zu dropped, "
      "%zu mid-pass reload%s — %s\n",
      max_connections, reload_pass.answered, lines.size(),
      reload_pass.failed, reloads, reloads == 1 ? "" : "s",
      reload_pass.failed == 0 && reload_pass.answered == lines.size() &&
              reloads == 1
          ? "OK"
          : "FAIL");
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::ParseScale(argc, argv);
  const bool csv = bench::ParseCsvFlag(argc, argv);
  const std::string json_path = bench::ParseJsonPath(argc, argv);
  bool net_mode = false;
  bool zipf_mode = false;
  bool shard_mode = false;
  bool churn_mode = false;
  bool reload_mode = false;
  bool tracing = true;
  size_t max_connections = 8;
  size_t depth = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--net") == 0) net_mode = true;
    if (std::strcmp(argv[i], "--zipf") == 0) zipf_mode = true;
    if (std::strcmp(argv[i], "--shards") == 0) shard_mode = true;
    if (std::strcmp(argv[i], "--churn") == 0) churn_mode = true;
    if (std::strcmp(argv[i], "--reload") == 0) reload_mode = true;
    if (std::strcmp(argv[i], "--no-trace") == 0) tracing = false;
    if (std::strncmp(argv[i], "--connections=", 14) == 0) {
      max_connections = std::max(1, std::atoi(argv[i] + 14));
    }
    if (std::strncmp(argv[i], "--depth=", 8) == 0) {
      depth = std::max(1, std::atoi(argv[i] + 8));
    }
  }
  bench::PrintHeader(
      "Serve",
      churn_mode  ? "query p99 + freshness under mixed query/update load"
      : reload_mode ? "TCFI snapshot swap latency and replica RSS"
      : shard_mode ? "sharded scatter-gather vs. one tree, Zipf overlap"
      : zipf_mode ? "exact-only vs. subset-composable cache, Zipf overlap"
      : net_mode  ? "TcpServer throughput over loopback connections"
                  : "QueryService throughput, cold vs. warm cache",
      scale);
  if (!tracing) std::printf("(request tracing disabled: --no-trace)\n");

  bench::JsonWriter json;
  bench::JsonWriter* jw = json_path.empty() ? nullptr : &json;
  const size_t queries =
      static_cast<size_t>((net_mode ? 5000 : 20000) * std::max(0.05, scale));
  const size_t update_batches = static_cast<size_t>(
      std::max(8.0, 32.0 * std::max(0.05, scale)));
  if (churn_mode) {
    RunChurnDataset("BK-like", [&] { return bench::MakeBkLike(scale); },
                    queries, update_batches, csv, tracing, jw);
    RunChurnDataset("SYN", [&] { return bench::MakeSynLike(scale); },
                    queries, update_batches, csv, tracing, jw);
  }
  if (!churn_mode) {
    DatabaseNetwork bk = bench::MakeBkLike(scale);
    if (reload_mode) RunReloadDataset("BK-like", bk, csv, tracing, jw);
    else if (shard_mode) RunShardDataset("BK-like", bk, queries, csv,
                                         tracing, jw);
    else if (zipf_mode) RunZipfDataset("BK-like", bk, queries, csv, tracing,
                                       jw);
    else if (net_mode) RunNetworkDataset("BK-like", bk, queries,
                                         max_connections, depth, csv,
                                         tracing, jw);
    else RunDataset("BK-like", bk, queries, csv, tracing, jw);
  }
  if (!churn_mode) {
    DatabaseNetwork syn = bench::MakeSynLike(scale);
    if (reload_mode) RunReloadDataset("SYN", syn, csv, tracing, jw);
    else if (shard_mode) RunShardDataset("SYN", syn, queries, csv, tracing,
                                         jw);
    else if (zipf_mode) RunZipfDataset("SYN", syn, queries, csv, tracing, jw);
    else if (net_mode) RunNetworkDataset("SYN", syn, queries,
                                         max_connections, depth, csv,
                                         tracing, jw);
    else RunDataset("SYN", syn, queries, csv, tracing, jw);
  }
  if (jw != nullptr) {
    json.Add("scale", scale);
    if (!json.WriteToFile(json_path)) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (reload_mode) {
    std::printf(
        "\nShape checks: the mmap swap costs little more than the map\n"
        "alone (it validates checksums and casts — no heap arena, no\n"
        "parse); extra mapped replicas cost ~0 marginal RSS because one\n"
        "page cache backs them all.\n");
  } else if (churn_mode) {
    std::printf(
        "\nShape checks: churn p99 stays within small multiples of base\n"
        "(updates rebuild off the read path; swaps are epoch-safe and\n"
        "invalidation is targeted, so the warm cache keeps absorbing\n"
        "traffic); freshness p50 is incremental-replay cost, well under\n"
        "a from-scratch build; sharded rows swap only the shards owning\n"
        "a changed root.\n");
  } else if (shard_mode) {
    std::printf(
        "\nShape checks: every shard count returns the same trusses\n"
        "(parity OK); single-owner queries ride the fast path, so mean\n"
        "fan-out stays well under the shard count; fresh q/s should hold\n"
        "within ~2x of unsharded — the merge is O(answer), not O(tree).\n");
  } else if (zipf_mode) {
    std::printf(
        "\nShape checks: where tree walks are expensive the work-aware\n"
        "gate engages and the composable cache must beat exact-only on\n"
        "fresh overlapping traffic with partial hits > 0 (shared cores\n"
        "reused as covers); where walks are already nearly free the gate\n"
        "keeps reuse off and the two modes must tie. Admission rejects\n"
        "bound the bytes sparse results may pin.\n");
  } else if (net_mode) {
    std::printf(
        "\nShape checks: q/s rises with --depth (pipelining amortizes\n"
        "the round trip) and holds as connections grow — idle\n"
        "connections park in epoll and cost an fd, not a thread; warm\n"
        "hit rate ~= workload repetition rate; the reload-under-load\n"
        "line must report 0 dropped.\n");
  } else {
    std::printf(
        "\nShape checks: warm q/s >> cold q/s (cache hits skip the tree\n"
        "walk); cold q/s grows with threads; warm hit rate ~= workload\n"
        "repetition rate (~20%% hot traffic + exact repeats).\n");
  }
  return 0;
}
