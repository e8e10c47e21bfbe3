// tcf — command-line front end for the theme-community library.
//
// Subcommands:
//   generate --kind=bk|gw|aminer|syn --out=FILE [--scale=S] [--seed=N]
//       Generate a dataset and save it in the tcf-dbnet text format.
//   stats   --in=FILE
//       Print Table-2-style statistics of a saved network.
//   mine    --in=FILE [--alpha=A] [--method=tcfi|tcfa|tcs] [--epsilon=E]
//           [--max-len=K] [--top=N]
//       Mine theme communities and print the top N by size.
//   index   --in=FILE --out=FILE.idx [--slices=N] [--build-threads=T]
//           [--max-nodes=N]
//       Build a TC-Tree and persist it (the §6 data-warehouse workflow)
//       as a TCFI file, the pointer-free binary layout
//       (docs/index-format.md) that query and serve mmap zero-copy
//       instead of parsing. Every tree layer builds in parallel over T
//       workers (default: hardware concurrency; --threads is accepted
//       as a legacy alias). --slices=N additionally writes the N
//       per-shard slice files `FILE.shard<i>-of-<N>` that
//       `serve --shards=N` maps directly. --format=tcfi is accepted for
//       older scripts; any other --format value is an error.
//   query   --in=FILE [--index=FILE.idx] [--alpha=A] [--items=a,b,c]
//           [--build-threads=T]
//       Answer one query (item *names*, comma-separated; defaults to all
//       items) against a freshly built or previously saved TC-Tree.
//   serve   --in=FILE --workload=FILE [--index=FILE.idx] [--threads=T]
//           [--build-threads=B] [--cache-mb=M] [--repeat=R] [--batch=B]
//           [--max-nodes=N] [--compose-min-us=U]
//       Run a query workload through the concurrent serving layer
//       (src/serve/): answers are produced by QueryService worker
//       threads over one immutable TC-Tree snapshot, with a sharded LRU
//       result cache of M MiB (default 64; 0 disables). The cache is
//       subset-composable (docs/architecture.md): misses compose cached
//       sub-pattern answers once the average full walk costs at least U
//       microseconds (default 100; 0 = always). The workload
//       file has one query per line in the form
//           alpha;item,item,...
//       where `alpha` is the cohesion threshold and the items are
//       comma-separated item *names* (`*` or an empty list = all items);
//       blank lines and lines starting with '#' are skipped. The whole
//       file is executed --repeat times (default 2, so the second pass
//       exercises the warm cache) in batches of B queries (default: one
//       batch), and a per-pass throughput/latency/hit-rate table plus a
//       final detailed report are printed.
//   serve   --in=FILE --listen=PORT [--host=ADDR] [--index=FILE.idx]
//           [--threads=T] [--build-threads=B] [--cache-mb=M]
//           [--max-conns=C] [--max-nodes=N] [--no-reload]
//           [--compose-min-us=U] [--no-update] [--update-threads=T]
//           [--watch=FILE.idx] [--watch-ms=M]
//       Long-lived server mode (mutually exclusive with --workload):
//       answer remote clients over the TCF1 line protocol
//       (docs/serve-protocol.md) on ADDR:PORT (default 127.0.0.1;
//       PORT 0 = kernel-assigned, printed on startup). Connections are
//       parked in an epoll event loop (idle ones cost a file
//       descriptor, not a thread); T workers (default 4) execute ready
//       requests; C caps open connections (default 0 = unlimited).
//       RELOAD lets a client hot-swap in a rebuilt index unless
//       --no-reload is given. The UPDATE verb streams transaction/edge
//       insertions into the live index through the incremental
//       maintainer (core/tc_tree_update.h) unless --no-update is given
//       (--update-threads sizes its re-peel pool, default
//       --build-threads). --watch polls FILE.idx every M ms (default
//       500) and hot-swaps each new version in — reload-on-write, no
//       client needed. SIGINT/SIGTERM shut down gracefully and print
//       the final serving report.
//   client  --port=PORT [--host=ADDR] [--ping] [--reload=FILE.idx]
//           [--query=LINE] [--explain=LINE] [--batch=FILE]
//           [--batch-size=B] [--workload=FILE] [--stats] [--metrics]
//           [--update-tx=V:a,b;...] [--update-edge=U-V;...]
//       Connect to a running `tcf serve --listen` server and run the
//       given actions in order (ping, reload, update, query, explain,
//       batch, workload, stats, metrics), always ending with QUIT.
//       --query takes one `alpha;item,...` line and prints the returned
//       communities; --explain answers the same line server-side but
//       prints its stage-timed trace (docs/observability.md); --batch
//       streams a workload file as pipelined `BATCH` exchanges of B
//       queries per round trip (default 128); --workload streams it one
//       request per round trip and prints one count per query;
//       --metrics scrapes the server's registry and prints the
//       Prometheus text exposition verbatim. --update-tx appends
//       transactions (`vertex:name,name`; ';'-separated for several)
//       and --update-edge inserts edges (`u-v;...`); both ride in ONE
//       atomic UPDATE exchange and print the server's apply summary.
//       Exits non-zero if any action fails.
//
// Global flags (any subcommand):
//   --log-level=debug|info|warn|error
//       Minimum severity of TCF_LOG lines on stderr (default: info).
//       debug makes the server narrate accepts/closes per connection.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/communities.h"
#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "core/tc_tree_snapshot.h"
#include "core/tcfi_format.h"
#include "core/tcfa.h"
#include "core/tcfi.h"
#include "core/tcs.h"
#include "gen/checkin_generator.h"
#include "gen/coauthor_generator.h"
#include "gen/syn_generator.h"
#include "net/network_io.h"
#include "net/stats.h"
#include "core/tc_tree_update.h"
#include "serve/client.h"
#include "serve/file_watcher.h"
#include "serve/line_protocol.h"
#include "serve/query_backend.h"
#include "serve/query_service.h"
#include "serve/tcp_server.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace tcf;

namespace {

// Minimal --key=value parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (!StartsWith(arg, "--")) continue;
      auto eq = arg.find('=');
      if (eq == std::string::npos) kv_[arg.substr(2)] = "true";
      else kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  std::string Get(const std::string& key, const std::string& dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
  }
  double GetDouble(const std::string& key, double dflt) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return dflt;
    auto v = ParseDouble(it->second);
    return v.ok() ? *v : dflt;
  }
  uint64_t GetUint(const std::string& key, uint64_t dflt) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return dflt;
    auto v = ParseUint64(it->second);
    return v.ok() ? *v : dflt;
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Applies the global --log-level flag (scanned over the whole argv so
/// it works in any position, before or after the subcommand). Returns
/// false on an unknown level name, after printing the choices.
bool ApplyLogLevel(int argc, char** argv) {
  constexpr std::string_view kFlag = "--log-level=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!StartsWith(arg, kFlag)) continue;
    const std::string_view level = arg.substr(kFlag.size());
    if (level == "debug") SetLogLevel(LogLevel::kDebug);
    else if (level == "info") SetLogLevel(LogLevel::kInfo);
    else if (level == "warn") SetLogLevel(LogLevel::kWarn);
    else if (level == "error") SetLogLevel(LogLevel::kError);
    else {
      std::fprintf(stderr,
                   "tcf: --log-level=%.*s is not one of "
                   "debug|info|warn|error\n",
                   static_cast<int>(level.size()), level.data());
      return false;
    }
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tcf <generate|stats|mine|index|query|serve|client> "
               "[--key=value ...] [--log-level=debug|info|warn|error]\n"
               "  generate --kind=bk|gw|aminer|syn --out=FILE [--scale=S] "
               "[--seed=N]\n"
               "  stats    --in=FILE\n"
               "  mine     --in=FILE [--alpha=A] [--method=tcfi|tcfa|tcs] "
               "[--epsilon=E] [--max-len=K] [--top=N]\n"
               "  index    --in=FILE --out=FILE.idx [--slices=N] "
               "[--build-threads=T] [--max-nodes=N] [--verbose]\n"
               "  query    --in=FILE [--index=FILE.idx] [--alpha=A] "
               "[--items=a,b,c] [--build-threads=T]\n"
               "  serve    --in=FILE --workload=FILE [--index=FILE.idx] "
               "[--threads=T] [--build-threads=B] [--cache-mb=M] "
               "[--repeat=R] [--batch=B] [--max-nodes=N] "
               "[--shards=N] [--compose-min-us=U] [--slow-us=U] "
               "[--no-trace] [--trace-sample=N]\n"
               "  serve    --in=FILE --listen=PORT [--host=ADDR] "
               "[--index=FILE.idx] [--threads=T] [--build-threads=B] "
               "[--cache-mb=M] [--max-conns=C] [--max-nodes=N] "
               "[--shards=N] [--no-reload] [--compose-min-us=U] "
               "[--slow-us=U] [--no-trace] [--trace-sample=N] "
               "[--no-update] [--update-threads=T] [--watch=FILE.idx] "
               "[--watch-ms=M] [--default-deadline-ms=D] "
               "[--rate-limit-qps=Q] [--rate-limit-burst=B] "
               "[--shed-watermark=W]\n"
               "  client   --port=PORT [--host=ADDR] [--ping] "
               "[--reload=FILE.idx] [--query=LINE] [--explain=LINE] "
               "[--batch=FILE] [--batch-size=B] [--workload=FILE] "
               "[--stats] [--metrics] [--update-tx=V:a,b;...] "
               "[--update-edge=U-V;...]\n");
  return 2;
}

int CmdGenerate(const Args& args) {
  const std::string kind = args.Get("kind", "bk");
  const std::string out = args.Get("out", "");
  const double scale = args.GetDouble("scale", 1.0);
  const uint64_t seed = args.GetUint("seed", 42);
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out=FILE is required\n");
    return 2;
  }

  std::optional<DatabaseNetwork> net;
  if (kind == "bk" || kind == "gw") {
    CheckinParams p;
    const double size = kind == "gw" ? 2.0 : 1.0;
    p.num_users = static_cast<size_t>(1000 * scale * size);
    p.num_locations = static_cast<size_t>(200 * scale * size);
    p.periods_per_user = 25;
    p.seed = seed;
    net.emplace(GenerateCheckinNetwork(p));
  } else if (kind == "aminer") {
    CoauthorParams p;
    p.num_groups = static_cast<size_t>(100 * scale);
    p.seed = seed;
    net.emplace(std::move(GenerateCoauthorNetwork(p).network));
  } else if (kind == "syn") {
    SynParams p;
    p.num_vertices = static_cast<size_t>(2000 * scale);
    p.num_edges = static_cast<size_t>(10000 * scale);
    p.num_items = static_cast<size_t>(1500 * scale);
    p.seed = seed;
    net.emplace(GenerateSynNetwork(p));
  } else {
    std::fprintf(stderr, "generate: unknown --kind=%s\n", kind.c_str());
    return 2;
  }

  if (Status s = SaveNetworkToFile(*net, out); !s.ok()) {
    std::fprintf(stderr, "generate: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu vertices, %zu edges)\n", out.c_str(),
              net->num_vertices(), net->num_edges());
  return 0;
}

StatusOr<DatabaseNetwork> LoadArg(const Args& args) {
  const std::string in = args.Get("in", "");
  if (in.empty()) return Status::InvalidArgument("--in=FILE is required");
  return LoadNetworkFromFile(in);
}

int CmdStats(const Args& args) {
  auto net = LoadArg(args);
  if (!net.ok()) {
    std::fprintf(stderr, "stats: %s\n", net.status().ToString().c_str());
    return 1;
  }
  NetworkStats s = ComputeStats(*net);
  std::printf("vertices:        %llu\n",
              static_cast<unsigned long long>(s.num_vertices));
  std::printf("edges:           %llu\n",
              static_cast<unsigned long long>(s.num_edges));
  std::printf("transactions:    %llu\n",
              static_cast<unsigned long long>(s.num_transactions));
  std::printf("items (total):   %llu\n",
              static_cast<unsigned long long>(s.num_items_total));
  std::printf("items (unique):  %llu\n",
              static_cast<unsigned long long>(s.num_items_unique));
  std::printf("avg degree:      %.2f\n", s.avg_degree);
  std::printf("avg tx/vertex:   %.2f\n", s.avg_transactions_per_vertex);
  std::printf("avg tx length:   %.2f\n", s.avg_transaction_length);
  return 0;
}

int CmdMine(const Args& args) {
  auto net = LoadArg(args);
  if (!net.ok()) {
    std::fprintf(stderr, "mine: %s\n", net.status().ToString().c_str());
    return 1;
  }
  const double alpha = args.GetDouble("alpha", 0.1);
  const std::string method = args.Get("method", "tcfi");
  const size_t max_len = args.GetUint("max-len", 0);
  const size_t top = args.GetUint("top", 20);

  WallTimer t;
  MiningResult result;
  if (method == "tcfi") {
    result = RunTcfi(*net, {.alpha = alpha, .max_pattern_length = max_len});
  } else if (method == "tcfa") {
    result = RunTcfa(*net, {.alpha = alpha, .max_pattern_length = max_len});
  } else if (method == "tcs") {
    result = RunTcs(*net, {.alpha = alpha,
                           .epsilon = args.GetDouble("epsilon", 0.1),
                           .max_pattern_length = max_len});
  } else {
    std::fprintf(stderr, "mine: unknown --method=%s\n", method.c_str());
    return 2;
  }
  auto communities = ExtractThemeCommunities(result.trusses);
  std::printf("%s(alpha=%.3f): %zu trusses, %zu communities in %.2f s\n",
              method.c_str(), alpha, result.trusses.size(),
              communities.size(), t.Seconds());

  std::stable_sort(communities.begin(), communities.end(),
                   [](const ThemeCommunity& a, const ThemeCommunity& b) {
                     return a.vertices.size() > b.vertices.size();
                   });
  for (size_t i = 0; i < std::min(top, communities.size()); ++i) {
    const auto& c = communities[i];
    std::printf("  %-40s %4zu members %4zu edges\n",
                net->dictionary().Render(c.theme).c_str(), c.vertices.size(),
                c.edges.size());
  }
  return 0;
}

/// Build-thread count for in-process index builds: --build-threads,
/// falling back to --threads (which sized these builds before
/// --build-threads existed, and still sizes the serve worker pool),
/// then to hardware concurrency (every TC-Tree layer is parallel).
size_t BuildThreadsArg(const Args& args) {
  return args.GetUint("build-threads",
                      args.GetUint("threads", HardwareThreads()));
}

int CmdIndex(const Args& args) {
  // TCFI is the only index format; --format=tcfi stays accepted so that
  // scripts written when there was a choice keep working.
  if (const std::string format = args.Get("format", "tcfi");
      format != "tcfi") {
    std::fprintf(stderr,
                 "index: --format=%s is not supported: tcfi is the only "
                 "index format\n",
                 format.c_str());
    return 2;
  }
  auto net = LoadArg(args);
  if (!net.ok()) {
    std::fprintf(stderr, "index: %s\n", net.status().ToString().c_str());
    return 1;
  }
  const std::string out = args.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "index: --out=FILE is required\n");
    return 2;
  }
  const size_t build_threads = BuildThreadsArg(args);
  const bool verbose = args.Get("verbose", "") == "true";
  MetricsRegistry build_metrics;
  WallTimer t;
  TcTree tree = TcTree::Build(
      *net, {.num_threads = build_threads,
             .max_nodes = args.GetUint("max-nodes", 2000000),
             .metrics = verbose ? &build_metrics : nullptr});
  std::printf("built TC-Tree: %zu nodes in %.2f s (%zu threads)%s\n",
              tree.num_nodes(), t.Seconds(), build_threads,
              tree.build_stats().truncated ? " (node budget hit)" : "");
  if (verbose) {
    // The build's shape, wave by wave: a wide layer-1 frontier that
    // narrows as Prop-5.2 prunes take hold is healthy; a wave whose
    // wall time dwarfs its neighbours is where the dense patterns live.
    TextTable waves({"wave", "depth", "frontier", "nodes added", "ms"});
    for (size_t i = 0; i < tree.build_stats().waves.size(); ++i) {
      const TcTreeWaveStats& w = tree.build_stats().waves[i];
      waves.AddRow({TextTable::Num(static_cast<uint64_t>(i)),
                    TextTable::Num(static_cast<uint64_t>(w.depth)),
                    TextTable::Num(static_cast<uint64_t>(w.frontier_width)),
                    TextTable::Num(w.nodes_added),
                    TextTable::Num(w.wall_ms)});
    }
    waves.Print(std::cout);
    std::printf("\nbuild metrics (tcf_build_*):\n%s",
                build_metrics.Render().c_str());
  }
  const size_t slices = args.GetUint("slices", 0);
  if (Status s = SaveTcTreeBinary(tree, out); !s.ok()) {
    std::fprintf(stderr, "index: %s\n", s.ToString().c_str());
    return 1;
  }
  if (slices >= 2) {
    if (Status s = SaveTcfiShardSlices(TcTree(tree), out, slices); !s.ok()) {
      std::fprintf(stderr, "index: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (tcfi) + %zu shard slices\n", out.c_str(),
                slices);
  } else {
    std::printf("wrote %s (tcfi)\n", out.c_str());
  }
  return 0;
}

/// Shared by query/serve: mmap the TCFI index at --index=FILE and serve
/// it zero-copy when one is given, otherwise build one in-process over
/// `BuildThreadsArg` workers. Prints what it
/// did — including the build/load wall time an operator compares
/// against the `last_reload_ms` STATS key — and returns nullopt (after
/// printing the error) on a failed load.
std::optional<TcTreeSnapshot> LoadOrBuildSnapshot(const Args& args,
                                                  const DatabaseNetwork& net,
                                                  const char* cmd) {
  WallTimer t;
  const std::string index_path = args.Get("index", "");
  if (!index_path.empty()) {
    auto mapped = MapTcTree(index_path);
    if (!mapped.ok()) {
      std::fprintf(stderr, "%s: %s\n", cmd,
                   mapped.status().ToString().c_str());
      return std::nullopt;
    }
    std::printf("TC-Tree: %zu nodes mapped zero-copy from %s in %.3f s\n",
                mapped->num_nodes(), index_path.c_str(), t.Seconds());
    return TcTreeSnapshot(std::move(*mapped));
  }
  const size_t build_threads = BuildThreadsArg(args);
  TcTree tree = TcTree::Build(
      net, {.num_threads = build_threads,
            .max_nodes = args.GetUint("max-nodes", 2000000)});
  std::printf("TC-Tree: %zu nodes built in %.2f s (%zu threads)%s\n",
              tree.num_nodes(), t.Seconds(), build_threads,
              tree.build_stats().truncated ? " (node budget hit)" : "");
  return TcTreeSnapshot(std::move(tree));
}

int CmdQuery(const Args& args) {
  auto net = LoadArg(args);
  if (!net.ok()) {
    std::fprintf(stderr, "query: %s\n", net.status().ToString().c_str());
    return 1;
  }
  const double alpha = args.GetDouble("alpha", 0.0);

  Itemset q;
  const std::string items = args.Get("items", "");
  if (items.empty()) {
    q = Itemset(net->ActiveItems());
  } else {
    std::vector<ItemId> ids;
    for (const std::string& name : Split(items, ',')) {
      auto id = net->dictionary().Find(std::string(Trim(name)));
      if (!id.ok()) {
        std::fprintf(stderr, "query: %s\n", id.status().ToString().c_str());
        return 1;
      }
      ids.push_back(*id);
    }
    q = Itemset(std::move(ids));
  }

  std::optional<TcTreeSnapshot> snap = LoadOrBuildSnapshot(args, *net, "query");
  if (!snap) return 1;

  WallTimer qt;
  TcTreeQueryResult r = snap->Query(q, alpha);
  std::printf("query(alpha=%.3f, |q|=%zu): %llu trusses in %.3f ms\n", alpha,
              q.size(), static_cast<unsigned long long>(r.retrieved_nodes),
              qt.Millis());
  size_t shown = 0;
  for (const PatternTruss& truss : r.trusses) {
    std::printf("  %-40s |V|=%4zu |E|=%4zu\n",
                net->dictionary().Render(truss.pattern).c_str(),
                truss.num_vertices(), truss.num_edges());
    if (++shown == 20) {
      if (r.trusses.size() > shown) {
        std::printf("  ... and %zu more\n", r.trusses.size() - shown);
      }
      break;
    }
  }
  return 0;
}

/// The observability knobs both serve modes share: --no-trace turns
/// request-scoped tracing off (flat counters only), --slow-us moves the
/// slow-query ring threshold (default 10000), --trace-sample=N keeps
/// every Nth query's trace (EXPLAIN always traces).
void ApplyTracingArgs(const Args& args, QueryServiceOptions* options) {
  options->tracing = args.Get("no-trace", "") != "true";
  options->slow_query_us =
      args.GetDouble("slow-us", options->slow_query_us);
  options->trace_sample_every =
      std::max<uint64_t>(1, args.GetUint("trace-sample", 1));
}

/// Builds the serving backend both serve modes share, over
/// `options.num_shards` (`--shards`) item-space shards (rolling RELOAD,
/// per-shard caches; see docs/architecture.md). With --index,
/// QueryService::Open maps it: the N per-shard TCFI slice files
/// `TcfiSlicePath(--index, s, N)` written by `tcf index --slices=N` when
/// they all exist, else the whole file (served as is when N = 1).
/// Without --index the tree is built in-process. Nothing here copies
/// the index for the streaming updater: UpdaterBaseline shares what the
/// backend serves. Returns null after printing the error.
std::unique_ptr<QueryService> MakeServeBackend(
    const Args& args, const DatabaseNetwork& net,
    const QueryServiceOptions& options) {
  const std::string index_path = args.Get("index", "");
  if (!index_path.empty()) {
    WallTimer t;
    auto opened = QueryService::Open(index_path, net.dictionary(), options);
    if (!opened.ok()) {
      std::fprintf(stderr, "serve: %s\n", opened.status().ToString().c_str());
      return nullptr;
    }
    const QueryService& service = **opened;
    const size_t n = service.num_shards();
    if (n == 1) {
      std::printf("TC-Tree: %zu nodes mapped zero-copy from %s in %.3f s\n",
                  service.snapshot()->num_nodes(), index_path.c_str(),
                  t.Seconds());
    } else if (service.snapshot()->mapped()) {
      std::printf(
          "TC-Tree: %zu shard slices of %s mapped zero-copy in %.3f s\n", n,
          index_path.c_str(), t.Seconds());
    } else {
      std::printf("TC-Tree: %s mapped and split into %zu shards in %.3f s\n",
                  index_path.c_str(), n, t.Seconds());
    }
    return std::move(*opened);
  }
  std::optional<TcTreeSnapshot> snap = LoadOrBuildSnapshot(args, net, "serve");
  if (!snap) return nullptr;
  return std::make_unique<QueryService>(std::move(*snap), net.dictionary(),
                                        options);
}

/// The streaming updater's baseline. Unsharded, it is the snapshot the
/// one shard serves — one copy of the index per server. With N >= 2 the
/// shards hold partitions, so the whole index is loaded once more: the
/// --index file mapped again (page cache, not heap), or an in-process
/// rebuild. Returns null after printing the error.
std::shared_ptr<const TcTreeSnapshot> UpdaterBaseline(
    const Args& args, const DatabaseNetwork& net,
    const QueryService& service) {
  if (service.num_shards() == 1) return service.snapshot();
  std::optional<TcTreeSnapshot> whole = LoadOrBuildSnapshot(args, net, "serve");
  if (!whole) return nullptr;
  return std::make_shared<const TcTreeSnapshot>(std::move(*whole));
}

/// Dumps the slow-query ring after a serving run (no-op when empty —
/// tracing off, or nothing crossed the threshold).
void PrintSlowQueries(const QueryBackend& service) {
  const std::vector<SlowQueryLog::Entry> entries =
      service.slow_log().Snapshot();
  if (entries.empty()) return;
  std::printf("\nslow queries (>= %.0f us; %llu recorded, newest last):\n",
              service.slow_log().threshold_us(),
              static_cast<unsigned long long>(
                  service.slow_log().total_recorded()));
  TextTable slow({"#", "total(us)", "walk(us)", "visited", "pruned", "src",
                  "query"});
  for (const SlowQueryLog::Entry& e : entries) {
    const double walk_us =
        e.trace.stage_wall_us[static_cast<size_t>(QueryStage::kWalk)];
    slow.AddRow({TextTable::Num(e.seq), TextTable::Num(e.trace.total_us),
                 TextTable::Num(walk_us), TextTable::Num(e.trace.visited_nodes),
                 TextTable::Num(e.trace.pruned_subtrees),
                 e.trace.cache_hit    ? "hit"
                 : e.trace.composed ? "composed"
                                    : "walk",
                 e.query_line});
  }
  slow.Print(std::cout);
}

/// Set by SIGINT/SIGTERM; polled by the --listen serve loop.
volatile std::sig_atomic_t g_stop = 0;
void HandleStopSignal(int) { g_stop = 1; }

/// `tcf serve --listen=PORT`: long-lived line-protocol server over a
/// QueryService (see docs/serve-protocol.md). Returns on SIGINT/SIGTERM
/// after a graceful TcpServer::Shutdown. Takes the network by value:
/// the streaming updater becomes its owner (UPDATE mutates it).
int ServeListen(const Args& args, DatabaseNetwork net,
                const std::string& listen) {
  auto port = ParseUint64(listen);
  if (!port.ok() || *port > 65535) {
    std::fprintf(stderr, "serve: --listen=%s is not a port (0-65535)\n",
                 listen.c_str());
    return 2;
  }
  const size_t threads = args.GetUint("threads", 4);
  const size_t cache_mb = args.GetUint("cache-mb", 64);

  QueryServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.cache_bytes = cache_mb << 20;
  service_options.cache_compose_min_walk_us =
      args.GetDouble("compose-min-us", 100.0);
  ApplyTracingArgs(args, &service_options);
  const size_t shards = std::max<uint64_t>(1, args.GetUint("shards", 1));
  service_options.num_shards = shards;
  const bool allow_update = args.Get("no-update", "") != "true";
  std::unique_ptr<QueryService> backend =
      MakeServeBackend(args, net, service_options);
  if (!backend) return 1;
  QueryService& service = *backend;

  // The updater owns the authoritative network and sinks every
  // incrementally rebuilt snapshot into the backend's shard-aware
  // swap; its build options pin the replay to the served tree's.
  // Destroyed before the backend (declared after), after the server
  // (declared before) — both reference it.
  std::unique_ptr<IndexUpdater> updater;
  if (allow_update) {
    std::shared_ptr<const TcTreeSnapshot> baseline =
        UpdaterBaseline(args, net, service);
    if (!baseline) return 1;
    TcTreeOptions update_options;
    update_options.num_threads =
        args.GetUint("update-threads", BuildThreadsArg(args));
    update_options.max_nodes = args.GetUint("max-nodes", 2000000);
    updater = std::make_unique<IndexUpdater>(
        std::move(net), std::move(baseline),
        [&service](std::shared_ptr<const TcTreeSnapshot> snap,
                   const std::vector<ItemId>& roots,
                   const std::vector<ItemId>& dirty) {
          return service.ApplyUpdatedSnapshot(std::move(snap), roots, dirty);
        },
        update_options);
  }

  TcpServerOptions server_options;
  server_options.bind_address = args.Get("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(*port);
  server_options.num_threads = threads;
  server_options.max_connections = args.GetUint("max-conns", 0);
  server_options.allow_reload = args.Get("no-reload", "") != "true";
  server_options.updater = updater.get();
  // Overload-protection knobs (docs/robustness.md); all default off.
  server_options.default_deadline_ms = args.GetUint("default-deadline-ms", 0);
  server_options.rate_limit_qps = args.GetDouble("rate-limit-qps", 0.0);
  server_options.rate_limit_burst = args.GetDouble("rate-limit-burst", 0.0);
  server_options.shed_watermark = args.GetUint("shed-watermark", 0);
  TcpServer server(service, server_options);
  // Handlers go in *before* the listening banner: a supervisor that
  // greps the log and immediately signals must still get the graceful
  // path.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "serve: %s\n", s.ToString().c_str());
    return 1;
  }

  // Reload-on-write: watch an index file and hot-swap each new version
  // (the push-free counterpart of the RELOAD verb).
  std::unique_ptr<FileWatcher> watcher;
  if (const std::string watch = args.Get("watch", ""); !watch.empty()) {
    FileWatcherOptions watch_options;
    watch_options.path = watch;
    watch_options.poll_ms = args.GetDouble("watch-ms", 500.0);
    watcher = std::make_unique<FileWatcher>(service, watch_options);
    if (Status s = watcher->Start(); !s.ok()) {
      std::fprintf(stderr, "serve: watch: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("serve: watching %s (every %.0f ms)\n", watch.c_str(),
                watch_options.poll_ms);
  }

  std::printf("serve: listening on %s:%u (epoll loop, %zu workers, "
              "%zu MiB cache, %zu shard%s, reload %s, update %s)\n",
              server.bind_address().c_str(), server.port(), threads,
              cache_mb, shards, shards >= 2 ? "s" : "",
              server_options.allow_reload ? "on" : "off",
              allow_update ? "on" : "off");
  std::fflush(stdout);  // the smoke test greps a redirected log for this

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("serve: shutting down\n");
  if (watcher) watcher->Stop();
  server.Shutdown();
  service.Report().ToTable().Print(std::cout);
  PrintSlowQueries(service);
  return 0;
}

int CmdServe(const Args& args) {
  auto net = LoadArg(args);
  if (!net.ok()) {
    std::fprintf(stderr, "serve: %s\n", net.status().ToString().c_str());
    return 1;
  }
  const std::string workload_path = args.Get("workload", "");
  const std::string listen = args.Get("listen", "");
  if (!listen.empty() && !workload_path.empty()) {
    std::fprintf(stderr,
                 "serve: --listen and --workload are mutually exclusive\n");
    return 2;
  }
  if (!listen.empty()) return ServeListen(args, std::move(*net), listen);
  if (workload_path.empty()) {
    std::fprintf(stderr,
                 "serve: --workload=FILE or --listen=PORT is required\n");
    return 2;
  }
  const size_t threads = args.GetUint("threads", 4);
  const size_t cache_mb = args.GetUint("cache-mb", 64);
  const size_t repeat = std::max<uint64_t>(1, args.GetUint("repeat", 2));
  const size_t batch = args.GetUint("batch", 0);

  // Parse the workload before touching the index: a typo'd path or a
  // malformed line must fail in milliseconds, not after a tree build.
  std::ifstream in(workload_path);
  if (!in) {
    std::fprintf(stderr, "serve: cannot open workload %s\n",
                 workload_path.c_str());
    return 1;
  }
  std::vector<ServeQuery> workload;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto query = ParseServeQuery(net->dictionary(), trimmed);
    if (!query.ok()) {
      std::fprintf(stderr, "serve: %s:%zu: %s\n", workload_path.c_str(),
                   line_no, query.status().ToString().c_str());
      return 1;
    }
    workload.push_back(std::move(*query));
  }
  if (workload.empty()) {
    std::fprintf(stderr, "serve: workload %s has no queries\n",
                 workload_path.c_str());
    return 1;
  }

  QueryServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.cache_bytes = cache_mb << 20;
  service_options.cache_compose_min_walk_us =
      args.GetDouble("compose-min-us", 100.0);
  ApplyTracingArgs(args, &service_options);
  const size_t shards = std::max<uint64_t>(1, args.GetUint("shards", 1));
  service_options.num_shards = shards;
  std::unique_ptr<QueryBackend> backend =
      MakeServeBackend(args, *net, service_options);
  if (!backend) return 1;
  QueryBackend& service = *backend;
  std::printf(
      "serving %zu queries x%zu passes, %zu threads, %zu MiB cache, "
      "%zu shard%s\n",
      workload.size(), repeat, service.num_threads(), cache_mb,
      shards, shards >= 2 ? "s" : "");

  // Pre-split the workload into batches outside the timed passes so the
  // reported throughput measures serving, not vector copies.
  std::vector<std::vector<ServeQuery>> batches;
  if (batch == 0) {
    batches.push_back(workload);
  } else {
    for (size_t i = 0; i < workload.size(); i += batch) {
      batches.emplace_back(
          workload.begin() + i,
          workload.begin() + std::min(workload.size(), i + batch));
    }
  }

  TextTable passes(
      {"pass", "queries", "time(s)", "q/s", "p50(us)", "p99(us)", "hit rate"});
  ServeReport last;
  for (size_t pass = 0; pass < repeat; ++pass) {
    const ServeReport before = service.Report();
    for (const std::vector<ServeQuery>& b : batches) {
      service.ExecuteBatch(b);
    }
    // Scoped to this pass, so the final report agrees with the table.
    last = service.Report().Since(before);
    passes.AddRow({pass == 0 ? "cold" : StrFormat("warm%zu", pass),
                   TextTable::Num(last.queries),
                   TextTable::Num(last.wall_seconds),
                   TextTable::Num(last.qps), TextTable::Num(last.p50_us),
                   TextTable::Num(last.p99_us),
                   TextTable::Num(last.cache.HitRate())});
  }
  passes.Print(std::cout);
  std::printf("\nfinal pass report:\n");
  last.ToTable().Print(std::cout);
  PrintSlowQueries(service);
  return 0;
}

/// Renders one wire truss like CmdQuery renders in-process ones.
void PrintWireTruss(const WireTruss& truss) {
  std::string names = "{";
  for (size_t i = 0; i < truss.pattern.size(); ++i) {
    if (i > 0) names += ", ";
    names += truss.pattern[i];
  }
  names += "}";
  std::printf("  %-40s |V|=%4zu |E|=%4zu\n", names.c_str(),
              truss.vertices.size(), truss.edges.size());
}

int CmdClient(const Args& args) {
  const uint64_t port = args.GetUint("port", 0);
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "client: --port=PORT (1-65535) is required\n");
    return 2;
  }
  auto client = Client::Connect(args.Get("host", "127.0.0.1"),
                                static_cast<uint16_t>(port));
  if (!client.ok()) {
    std::fprintf(stderr, "client: %s\n", client.status().ToString().c_str());
    return 1;
  }

  if (args.Get("ping", "") == "true") {
    if (Status s = (*client)->Ping(); !s.ok()) {
      std::fprintf(stderr, "client: ping: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("PONG\n");
  }

  if (const std::string path = args.Get("reload", ""); !path.empty()) {
    auto nodes = (*client)->Reload(path);
    if (!nodes.ok()) {
      std::fprintf(stderr, "client: reload: %s\n",
                   nodes.status().ToString().c_str());
      return 1;
    }
    std::printf("reloaded %s: %llu nodes\n", path.c_str(),
                static_cast<unsigned long long>(*nodes));
  }

  const std::string update_txs = args.Get("update-tx", "");
  const std::string update_edges = args.Get("update-edge", "");
  if (!update_txs.empty() || !update_edges.empty()) {
    // Both flags fold into ONE atomic UPDATE exchange: either the whole
    // batch lands or none of it does.
    std::vector<std::string> lines;
    for (const std::string& spec : Split(update_txs, ';')) {
      const std::string_view t = Trim(spec);
      if (t.empty()) continue;
      const size_t colon = t.find(':');
      if (colon == std::string_view::npos || colon == 0 ||
          colon + 1 == t.size()) {
        std::fprintf(stderr,
                     "client: --update-tx spec '%.*s' is not "
                     "'vertex:name,name,...'\n",
                     static_cast<int>(t.size()), t.data());
        return 2;
      }
      lines.push_back(StrFormat("tx %.*s %.*s", static_cast<int>(colon),
                                t.data(), static_cast<int>(t.size() - colon - 1),
                                t.data() + colon + 1));
    }
    for (const std::string& spec : Split(update_edges, ';')) {
      const std::string_view t = Trim(spec);
      if (t.empty()) continue;
      const size_t dash = t.find('-');
      if (dash == std::string_view::npos || dash == 0 ||
          dash + 1 == t.size()) {
        std::fprintf(stderr,
                     "client: --update-edge spec '%.*s' is not 'u-v'\n",
                     static_cast<int>(t.size()), t.data());
        return 2;
      }
      lines.push_back(StrFormat("edge %.*s %.*s", static_cast<int>(dash),
                                t.data(), static_cast<int>(t.size() - dash - 1),
                                t.data() + dash + 1));
    }
    auto summary = (*client)->Update(lines);
    if (!summary.ok()) {
      std::fprintf(stderr, "client: update: %s\n",
                   summary.status().ToString().c_str());
      return 1;
    }
    std::printf("updated (%zu line%s):\n", lines.size(),
                lines.size() == 1 ? "" : "s");
    for (const auto& [key, value] : *summary) {
      std::printf("%-22s %s\n", key.c_str(), value.c_str());
    }
  }

  if (const std::string query = args.Get("query", ""); !query.empty()) {
    auto trusses = (*client)->Query(query);
    if (!trusses.ok()) {
      std::fprintf(stderr, "client: query: %s\n",
                   trusses.status().ToString().c_str());
      return 1;
    }
    std::printf("query '%s': %zu communities\n", query.c_str(),
                trusses->size());
    for (const WireTruss& truss : *trusses) PrintWireTruss(truss);
  }

  if (const std::string query = args.Get("explain", ""); !query.empty()) {
    auto trace = (*client)->Explain(query);
    if (!trace.ok()) {
      std::fprintf(stderr, "client: explain: %s\n",
                   trace.status().ToString().c_str());
      return 1;
    }
    std::printf("explain '%s':\n", query.c_str());
    for (const auto& [key, value] : *trace) {
      std::printf("%-26s %s\n", key.c_str(), value.c_str());
    }
  }

  if (const std::string path = args.Get("batch", ""); !path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "client: cannot open batch file %s\n",
                   path.c_str());
      return 1;
    }
    const size_t batch_size = std::max<uint64_t>(
        1, std::min<uint64_t>(args.GetUint("batch-size", 128),
                              kMaxBatchLines));
    std::vector<std::string> pending;
    std::string line;
    size_t queries = 0, trusses_total = 0, batches = 0;
    // Returns false (after printing) on a transport or per-slot error.
    auto flush = [&]() -> bool {
      if (pending.empty()) return true;
      auto items = (*client)->Batch(pending);
      if (!items.ok()) {
        std::fprintf(stderr, "client: batch: %s\n",
                     items.status().ToString().c_str());
        return false;
      }
      for (size_t i = 0; i < items->size(); ++i) {
        const Client::BatchItem& item = (*items)[i];
        if (!item.status.ok()) {
          std::fprintf(stderr, "client: batch: '%s': %s\n",
                       pending[i].c_str(), item.status.ToString().c_str());
          return false;
        }
        ++queries;
        trusses_total += item.trusses.size();
      }
      ++batches;
      pending.clear();
      return true;
    };
    while (std::getline(in, line)) {
      const std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      pending.emplace_back(trimmed);
      if (pending.size() == batch_size && !flush()) return 1;
    }
    if (!flush()) return 1;
    std::printf("batch %s: %zu queries in %zu round trip%s, "
                "%zu communities\n",
                path.c_str(), queries, batches, batches == 1 ? "" : "s",
                trusses_total);
  }

  if (const std::string path = args.Get("workload", ""); !path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "client: cannot open workload %s\n", path.c_str());
      return 1;
    }
    std::string line;
    size_t line_no = 0, queries = 0, trusses_total = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      auto trusses = (*client)->Query(std::string(trimmed));
      if (!trusses.ok()) {
        std::fprintf(stderr, "client: %s:%zu: %s\n", path.c_str(), line_no,
                     trusses.status().ToString().c_str());
        return 1;
      }
      ++queries;
      trusses_total += trusses->size();
    }
    std::printf("workload %s: %zu queries, %zu communities\n", path.c_str(),
                queries, trusses_total);
  }

  if (args.Get("stats", "") == "true") {
    auto stats = (*client)->Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "client: stats: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    for (const auto& [key, value] : *stats) {
      std::printf("%-22s %s\n", key.c_str(), value.c_str());
    }
  }

  if (args.Get("metrics", "") == "true") {
    auto text = (*client)->Metrics();
    if (!text.ok()) {
      std::fprintf(stderr, "client: metrics: %s\n",
                   text.status().ToString().c_str());
      return 1;
    }
    // Verbatim: `tcf client --metrics > scrape.prom` IS a scrape.
    std::fputs(text->c_str(), stdout);
  }

  if (Status s = (*client)->Quit(); !s.ok()) {
    std::fprintf(stderr, "client: quit: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (!ApplyLogLevel(argc, argv)) return 2;
  const Args args(argc, argv);
  const std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "mine") return CmdMine(args);
  if (cmd == "index") return CmdIndex(args);
  if (cmd == "query") return CmdQuery(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "client") return CmdClient(args);
  return Usage();
}
