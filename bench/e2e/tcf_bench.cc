// tcf_bench — the end-to-end benchmark (bench/e2e/README.md).
//
//   tcf_bench --out=DIR [--workload=NAME|all] [--seed=N] [--seconds=S]
//             [--trace=0|1] [--quick] [--json=FILE] [--corrupt-oracle]
//
// bench/e2e/run.sh builds this harness and the shipped `tcf` binary and
// forwards its arguments here. One workload run:
//   1. set-up, several times (the median is reported): generate the
//      dataset and save it as .net, run `tcf index` (a child process),
//      spawn `tcf serve --listen=0` and wait for its listening banner;
//   2. an open-loop warm-up, then the measured phase at the nominal
//      rate (half of --seconds), then capacity probes (the other half)
//      that home in on the highest rate meeting the p90 SLO;
//   3. the correctness oracles (oracles.h), the server's peak RSS.
// With --trace=1 the capacity probes give way to an unloaded wire replay
// and a second, traced measured phase; the in-process replays of
// replay.h then yield the per-layer metrics and a Chrome trace file.
// The last line of stdout is one JSON object: correct, attempted,
// failed, metrics. The exit code is 0 only when every oracle passed.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "child.h"
#include "core/tc_tree.h"
#include "core/tcfi_format.h"
#include "loadgen.h"
#include "net/network_io.h"
#include "oracles.h"
#include "replay.h"
#include "serve/client.h"
#include "serve/line_protocol.h"
#include "serve/query_service.h"
#include "spans.h"
#include "util/string_util.h"
#include "workloads.h"

namespace tcf::e2e {
namespace {

/// The shipped CLI, built alongside this harness (CMakeLists.txt).
constexpr const char* kTcf = TCF_CLI_PATH;

struct Config {
  std::string workload = "all";
  uint64_t seed = 1;
  // BENCHMARK.json's run_seconds: a runner that reads that file passes
  // it back as --seconds.
  double seconds = 24;
  bool trace = false;
  bool quick = false;
  bool corrupt_oracle = false;
  std::string json_path;
  std::string out;  // scratch data, logs and traces (inside the checkout)

  size_t setups(const WorkloadSpec& spec) const {
    return quick ? 1 : spec.setups;
  }
  double warmup_s(const WorkloadSpec& spec) const {
    return quick ? 0.5 : spec.warmup_s;
  }
  size_t oracle_queries() const { return quick ? 200 : 1000; }
  size_t oracle_nodes() const { return quick ? 50 : 200; }
  size_t replay_queries() const { return quick ? 500 : 5000; }
};

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
  size_t samples = 0;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // oracle and run failures
  std::vector<Metric> metrics;        // the reported set
  std::vector<Metric> extra;          // printed only
  std::vector<std::string> notes;     // printed only

  bool correct() const { return problems.empty() && failed == 0; }
  void Problem(std::string what) { problems.push_back(std::move(what)); }
};

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

constexpr double kMiB = 1024.0 * 1024.0;

// ------------------------------------------------------------- set-up

/// What set-up leaves behind: the dataset, the served index, and the
/// server of the last set-up repetition.
struct Served {
  std::optional<DatabaseNetwork> net;
  std::string net_path;
  std::string index_path;
  std::unique_ptr<ChildProcess> server;
  uint16_t port = 0;
  std::vector<double> setup_s;
  std::vector<double> index_s;
  double index_rss_mb = 0;
  uint64_t index_nodes = 0;  // as `tcf index` printed it
};

Status SetUp(const WorkloadSpec& spec, const Config& cfg,
             const std::string& dir, Served* s) {
  s->net_path = dir + "/dataset.net";
  s->index_path = dir + "/index.tcfi";
  const std::string max_nodes =
      StrFormat("--max-nodes=%llu",
                static_cast<unsigned long long>(spec.max_nodes));
  for (size_t k = 0; k < cfg.setups(spec); ++k) {
    s->server.reset();  // stops the previous repetition's server
    const int64_t t0 = NowNs();
    s->net.emplace(MakeDataset(spec.dataset));
    TCF_RETURN_IF_ERROR(SaveNetworkToFile(*s->net, s->net_path));

    const int64_t t_index = NowNs();
    auto index = ChildProcess::Spawn(
        {kTcf, "index", "--in=" + s->net_path, "--out=" + s->index_path,
         "--format=tcfi", "--build-threads=4", max_nodes},
        dir + "/index.log");
    if (!index.ok()) return index.status();
    TCF_RETURN_IF_ERROR((*index)->Wait(600));
    s->index_s.push_back((NowNs() - t_index) / 1e9);
    s->index_rss_mb = std::max(s->index_rss_mb, (*index)->PeakRssMb());
    const std::string log = (*index)->Log();
    const size_t at = log.find("built TC-Tree: ");
    unsigned long long nodes = 0;
    if (at == std::string::npos ||
        std::sscanf(log.c_str() + at, "built TC-Tree: %llu", &nodes) != 1) {
      return Status::Internal("tcf index printed no node count:\n" + log);
    }
    s->index_nodes = nodes;

    auto server = ChildProcess::Spawn(
        {kTcf, "serve", "--in=" + s->net_path, "--index=" + s->index_path,
         "--listen=0", StrFormat("--threads=%zu", kServerThreads),
         StrFormat("--cache-mb=%zu", kServerCacheMb),
         StrFormat("--compose-min-us=%g", kServerComposeMinUs),
         "--update-threads=2", max_nodes},
        dir + "/serve.log");
    if (!server.ok()) return server.status();
    s->server = std::move(*server);
    auto banner = s->server->WaitForLine("serve: listening on", 600);
    if (!banner.ok()) return banner.status();
    s->setup_s.push_back((NowNs() - t0) / 1e9);
    const size_t colon = banner->find(':', banner->find("listening on"));
    unsigned port = 0;
    if (colon == std::string::npos ||
        std::sscanf(banner->c_str() + colon + 1, "%u", &port) != 1) {
      return Status::Internal("unparseable banner: " + *banner);
    }
    s->port = static_cast<uint16_t>(port);
  }
  return Status::OK();
}

// -------------------------------------------------------------- load

std::vector<std::string> NextLines(QueryStream& stream,
                                   const ItemDictionary& dictionary,
                                   size_t n) {
  std::vector<std::string> lines;
  lines.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    lines.push_back(EncodeQueryLine(dictionary, stream.Next()));
  }
  return lines;
}

/// Folds a phase's request counts and first error into the outcome.
void Account(const PhaseResult& r, const char* phase, Outcome* out) {
  out->attempted += r.sent;
  out->failed += r.failed;
  if (r.failed > 0) {
    out->Problem(StrFormat("%s: %zu failed requests, first: %s", phase,
                           r.failed, r.first_error.c_str()));
  }
}

struct Probe {
  double rate = 0;
  double p90_us = 0;
  double completed_frac = 0;
  bool served = false;  // nothing failed and >= 98% of the load completed
  bool pass = false;    // served, and the p90 met the SLO
};

bool MeetsSlo(const PhaseResult& r, const WorkloadSpec& spec,
              double* p90_us) {
  *p90_us = WindowedQuantile(r, 0.9);
  return r.failed == 0 && r.offered > 0 &&
         static_cast<double>(r.completed) >=
             0.98 * static_cast<double>(r.offered) &&
         *p90_us <= spec.slo_p90_us;
}

/// Near capacity a probe's p90 grows about as this power of its rate (the
/// within-run slope of log p90 over log rate was 2.6-4.3 in the
/// calibration runs; baseline/).
constexpr double kP90RateExponent = 4;

/// The highest Poisson rate that meets the SLO: a probe passes when its
/// windowed p90 is within the SLO, >= 98% of the offered load completes
/// and nothing fails. An up-down staircase of `num_probes` short probes
/// starts at twice the nominal rate, steps up after a pass and down after
/// a fail, and shrinks the step at every reversal, so the probes gather
/// around the rate where the p90 crosses the SLO. The estimate reads that
/// crossing off the probes' p90s rather than their verdicts: a probe at
/// rate r with p90 p suggests a capacity of r * (SLO / p)^(1/4), and the
/// estimate is the geometric mean of these over the probes that served
/// their load with a p90 within 4x of the SLO. Near capacity one probe's
/// p90 swings by tens of percent on a shared host; a verdict keeps only
/// its side of the SLO, the p90 also keeps by how much.
double MaxQpsAtSlo(const WorkloadSpec& spec, double probe_s,
                   size_t num_probes, const std::vector<Client*>& conns,
                   QueryStream& stream, const ItemDictionary& dictionary,
                   Rng& arrivals, std::vector<Probe>* probes, Outcome* out) {
  double rate = 2 * spec.nominal_qps;
  double step = 1.25;
  for (size_t k = 0; k < num_probes; ++k) {
    Probe probe;
    probe.rate = rate;
    const std::vector<int64_t> due = PoissonArrivals(arrivals, rate, probe_s);
    const std::vector<std::string> lines =
        NextLines(stream, dictionary, due.size());
    const PhaseResult r =
        RunQueryPhase(conns, lines, due,
                      {.seconds = probe_s, .grace_s = 0.25, .window_s = 0.25});
    Account(r, "capacity probe", out);
    probe.pass = MeetsSlo(r, spec, &probe.p90_us);
    probe.completed_frac =
        Ratio(static_cast<double>(r.completed), static_cast<double>(r.offered));
    probe.served = r.failed == 0 && probe.completed_frac >= 0.98;
    if (!probes->empty() && probes->back().pass != probe.pass) {
      step = std::max(1.04, std::sqrt(step));
    }
    probes->push_back(probe);
    rate = probe.pass ? rate * step : rate / step;
    // Let a failed probe's backlog drain before the next one starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }
  double log_sum = 0;
  size_t used = 0;
  for (const Probe& p : *probes) {
    if (!p.served || !(p.p90_us > 0)) continue;
    const double miss = std::log(spec.slo_p90_us / p.p90_us);
    if (std::abs(miss) > std::log(4.0)) continue;
    log_sum += std::log(p.rate) + miss / kP90RateExponent;
    ++used;
  }
  // With no probe near the SLO the staircase never reached capacity (or
  // never got below it); where it stopped is the best bound.
  return used == 0 ? rate : std::exp(log_sum / static_cast<double>(used));
}

// ------------------------------------------------------------ metrics

/// Server-side deltas over the measured phase, from two METRICS scrapes.
struct ServerDelta {
  std::map<std::string, double> before, after;
  double operator()(const std::string& name) const {
    auto a = after.find(name);
    auto b = before.find(name);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  }
};

/// Everything the traced run measured, for the per-layer metrics.
struct TraceInputs {
  size_t replayed = 0;
  QueryReplay queries;
  UpdateReplay updates;
  UpdateStream::Result update_wire;
  size_t updates_before_replay = 0;  // of update_wire.acknowledged
  BuildReplay build;
  ServerDelta server;
  PhaseResult measured;  // the traced measured phase
  double measured_s = 0;
  double untraced_p50_us = 0;  // the untraced run's query_p50_us
  double index_median_s = 0;
};

std::vector<Metric> PerLayerMetrics(const TraceInputs& in,
                                    const SpanLog& log) {
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, const char* unit,
                  size_t samples) {
    m.push_back({std::move(name), value, unit, samples});
  };
  const size_t n = in.replayed;
  auto per_request = [&](const char* name) {
    return log.PerRequestUs(name, kReplayRequestBase, n);
  };
  const std::vector<double> rtt = per_request("client.RoundTrip");
  const std::vector<double> parse_req =
      per_request("line_protocol.ParseRequest");
  const std::vector<double> parse_q =
      per_request("query_service.ParseServeQuery");
  const std::vector<double> execute = per_request("query_service.Execute");
  const std::vector<double> encode = per_request("line_protocol.EncodeTruss");
  std::vector<double> parse(n), unaccounted(n);
  for (size_t i = 0; i < n; ++i) {
    parse[i] = parse_req[i] + parse_q[i];
    unaccounted[i] = rtt[i] - parse[i] - execute[i] - encode[i];
  }
  add("client.rtt_p50_us", Median(rtt), "us", n);
  add("transport.unaccounted_p50_us", Median(unaccounted), "us", n);

  const ServerDelta& d = in.server;
  const double queries = d("tcf_queries_total");
  add("tcp_server.pending_p90", Quantile(in.measured.pending_samples, 0.9),
      "count", in.measured.pending_samples.size());
  add("tcp_server.bytes_out_per_query",
      Ratio(d("tcf_bytes_out_total"), queries), "bytes",
      static_cast<size_t>(queries));

  add("line_protocol.parse_us", Median(parse), "us", n);
  add("line_protocol.encode_us", Median(encode), "us", n);
  add("line_protocol.decode_us",
      Median(per_request("line_protocol.DecodeTruss")), "us", n);
  add("line_protocol.answer_bytes",
      Ratio(static_cast<double>(in.queries.answer_bytes),
            static_cast<double>(n)),
      "bytes", n);

  add("query_service.execute_p50_us", Median(execute), "us", n);
  add("query_service.execute_p90_us", Quantile(execute, 0.9), "us", n);
  add("query_service.server_total_us",
      Ratio(d("tcf_query_total_us_sum"), d("tcf_query_total_us_count")), "us",
      static_cast<size_t>(d("tcf_query_total_us_count")));
  // Means per query (not per execution of a stage), so the stages add
  // up against server_total_us. A miss is answered by composition or by
  // a walk (or both, when no cover applies), so the two share one row;
  // composed_frac says which.
  auto stage_us = [&](const char* stage) {
    return Ratio(d(StrFormat("tcf_query_stage_%s_us_sum", stage)), queries);
  };
  const auto n_queries = static_cast<size_t>(queries);
  add("query_service.stage_parse_us", stage_us("parse"), "us", n_queries);
  add("query_service.stage_cache_probe_us", stage_us("cache_probe"), "us",
      n_queries);
  add("query_service.stage_compose_walk_us",
      stage_us("compose") + stage_us("walk"), "us", n_queries);
  add("query_service.stage_serialize_us", stage_us("serialize"), "us",
      n_queries);

  const double hits = d("tcf_query_cache_hits_total");
  const double misses = d("tcf_query_cache_misses_total");
  const double composed = d("tcf_query_composed_total");
  add("result_cache.hit_rate", Ratio(hits, hits + misses), "ratio",
      static_cast<size_t>(hits + misses));
  add("result_cache.composed_frac", Ratio(composed, misses), "ratio",
      static_cast<size_t>(misses));
  add("result_cache.covers_per_composed",
      Ratio(d("tcf_query_covers_used_total"), composed), "count",
      static_cast<size_t>(composed));
  add("result_cache.evictions_per_kq",
      1000 * Ratio(d("tcf_cache_evictions_total"), queries), "count",
      static_cast<size_t>(queries));
  add("result_cache.admission_rejects",
      d("tcf_cache_admission_rejects_total"), "count", 1);
  add("result_cache.resident_mb",
      in.server.after.count("tcf_cache_bytes")
          ? in.server.after.at("tcf_cache_bytes") / kMiB
          : 0,
      "MiB", 1);

  const std::vector<double> walk = log.DurationsUs("tc_tree_query.QueryTcTree");
  const double walks = static_cast<double>(walk.size());
  add("tc_tree_query.walk_us", Median(walk), "us", walk.size());
  add("tc_tree_query.visited_nodes",
      Ratio(static_cast<double>(in.queries.visited_nodes), walks), "count",
      walk.size());
  add("tc_tree_query.retrieved_nodes",
      Ratio(static_cast<double>(in.queries.retrieved_nodes), walks), "count",
      walk.size());
  add("tc_tree_query.pruned_subtrees",
      Ratio(static_cast<double>(in.queries.pruned_subtrees), walks), "count",
      walk.size());

  // Update layers: the churn stream, or a read-only workload's two
  // batches after its oracles.
  const UpdateReplay& u = in.updates;
  const UpdateStream::Result& w = in.update_wire;
  const std::vector<double> dirty_us =
      log.DurationsUs("tc_tree_update.ComputeDirtyItems");
  std::vector<double> tree_ms = log.DurationsUs("tc_tree_update.UpdateTcTree");
  std::vector<double> apply_ms =
      log.DurationsUs("query_service.ApplyUpdatedSnapshot");
  for (double& x : tree_ms) x /= 1e3;
  for (double& x : apply_ms) x /= 1e3;
  std::vector<double> overhead_ms;
  for (size_t i = 0; i < w.rtt_ms.size(); ++i) {
    overhead_ms.push_back(w.rtt_ms[i] - w.server_ms[i]);
  }
  const double batches = static_cast<double>(u.batches);
  add("tc_tree_update.dirty_set_us", Median(dirty_us), "us", dirty_us.size());
  add("tc_tree_update.update_tree_ms", Median(tree_ms), "ms", tree_ms.size());
  add("query_service.apply_snapshot_ms", Median(apply_ms), "ms",
      apply_ms.size());
  add("tc_tree_update.server_update_ms_p50", Median(w.server_ms), "ms",
      w.server_ms.size());
  add("update.rtt_p50_ms", Median(w.rtt_ms), "ms", w.rtt_ms.size());
  add("update.rtt_p90_ms", Quantile(w.rtt_ms, 0.9), "ms", w.rtt_ms.size());
  add("update.wire_overhead_p50_ms", Median(overhead_ms), "ms",
      overhead_ms.size());
  add("tc_tree_update.copied", static_cast<double>(u.copied), "count",
      u.batches);
  add("tc_tree_update.recomputed", static_cast<double>(u.recomputed), "count",
      u.batches);
  add("tc_tree_update.copy_ratio",
      Ratio(static_cast<double>(u.copied),
            static_cast<double>(u.copied + u.recomputed)),
      "ratio", u.batches);
  add("tc_tree_update.dirty_items_mean",
      Ratio(static_cast<double>(u.dirty_items), batches), "count", u.batches);
  add("tc_tree_update.changed_roots_mean",
      Ratio(static_cast<double>(u.changed_roots), batches), "count",
      u.batches);
  add("tc_tree_update.full_rebuilds", static_cast<double>(u.full_rebuilds),
      "count", u.batches);

  // Build layers (the traced replay of `tcf index`).
  const TcTreeBuildStats& b = in.build.stats;
  auto one_ms = [&](const char* name) {
    const std::vector<double> us = log.DurationsUs(name);
    return us.empty() ? 0.0 : us.front() / 1e3;
  };
  const double load_ms = one_ms("network_io.LoadNetworkFromFile");
  const double build_ms = one_ms("tc_tree.Build");
  const double save_ms = one_ms("tcfi_format.SaveTcTreeBinary");
  double depth_ms[2] = {0, 0};  // layer 1, deeper layers
  for (const TcTreeWaveStats& wave : b.waves) {
    depth_ms[wave.depth <= 1 ? 0 : 1] += wave.wall_ms;
  }
  const std::vector<double> induce =
      log.DurationsUs("theme_network.InduceThemeNetwork");
  const std::vector<double> peel =
      log.DurationsUs("decomposition.FromThemeNetwork");
  add("network_io.load_ms", load_ms, "ms", 1);
  add("tc_tree.build_s", build_ms / 1e3, "s", 1);
  add("tc_tree.depth1_ms", depth_ms[0], "ms", b.waves.size());
  add("tc_tree.depth2plus_ms", depth_ms[1], "ms", b.waves.size());
  add("tc_tree.nodes", static_cast<double>(in.build.nodes), "count", 1);
  add("tc_tree.candidates", static_cast<double>(b.candidates_considered),
      "count", 1);
  add("tc_tree.pruned_by_intersection",
      static_cast<double>(b.pruned_by_intersection), "count", 1);
  add("tc_tree.mptd_calls", static_cast<double>(b.mptd_calls), "count", 1);
  add("tc_tree.indexed_edges", static_cast<double>(in.build.indexed_edges),
      "count", 1);
  add("tc_tree.prune_ratio",
      Ratio(static_cast<double>(b.pruned_by_intersection),
            static_cast<double>(b.candidates_considered)),
      "ratio", 1);
  add("tc_tree.memory_mb", static_cast<double>(in.build.memory_bytes) / kMiB,
      "MiB", 1);
  add("theme_network.induce_us", Mean(induce), "us", induce.size());
  add("decomposition.peel_us", Mean(peel), "us", peel.size());
  add("tcfi_format.save_ms", save_ms, "ms", 1);
  add("tcfi_format.map_ms", one_ms("tcfi_format.MapTcTree"), "ms", 1);
  add("tcfi_format.file_mb", static_cast<double>(in.build.file_bytes) / kMiB,
      "MiB", 1);
  add("index.unaccounted_ms",
      in.index_median_s * 1e3 - load_ms - build_ms - save_ms, "ms", 1);

  add("loadgen.late_p90_us", Quantile(in.measured.late_us, 0.9), "us",
      in.measured.late_us.size());
  add("loadgen.achieved_qps",
      Ratio(static_cast<double>(in.measured.completed), in.measured_s), "1/s",
      in.measured.completed);
  add("trace.overhead_frac",
      Ratio(WindowedQuantile(in.measured, 0.5) - in.untraced_p50_us,
            in.untraced_p50_us),
      "ratio", in.measured.completed);
  return m;
}

// ------------------------------------------------------------ the run

/// The generator's connections: one per query thread, then one for the
/// UPDATE stream.
StatusOr<std::vector<std::unique_ptr<Client>>> Connect(uint16_t port,
                                                       size_t n) {
  std::vector<std::unique_ptr<Client>> conns;
  for (size_t c = 0; c < n; ++c) {
    auto client = Client::Connect("127.0.0.1", port);
    if (!client.ok()) return client.status();
    conns.push_back(std::move(*client));
  }
  return conns;
}

/// Starts an UPDATE stream of `per_s` batches a second over `seconds`.
/// A steady cadence, not Poisson: every 1 s window then holds the same
/// number of invalidation storms, and the readers' latency measures
/// their cost rather than how many happened to land. `batch_seed` seeds
/// the batches.
std::unique_ptr<UpdateStream> StartUpdates(double per_s, double seconds,
                                           const DatabaseNetwork& net,
                                           uint64_t batch_seed, Client* conn) {
  Rng rng(batch_seed);
  std::vector<int64_t> due;
  std::vector<NetworkUpdate> batches;
  for (double t = 0.5 / per_s; t < seconds; t += 1 / per_s) {
    due.push_back(static_cast<int64_t>(t * 1e9));
    batches.push_back(
        MakeUpdateBatch(rng, net.num_vertices(), net.num_items()));
  }
  auto stream = std::make_unique<UpdateStream>(conn, net.dictionary(),
                                               std::move(batches),
                                               std::move(due));
  stream->Start();
  return stream;
}

/// The oracles: wire answers against a from-scratch truth (the served
/// index walked in-process, or for churn a full rebuild over the dataset
/// plus every acknowledged update), then the index itself.
void CheckOracles(const WorkloadSpec& spec, const Config& cfg,
                  const Served& served, const MappedTcTree& index,
                  const std::vector<std::string>& measured_lines,
                  const UpdateStream::Result* updates, Client& conn,
                  Outcome* out) {
  const ItemDictionary& dictionary = served.net->dictionary();
  const std::vector<std::string> lines(
      measured_lines.begin(),
      measured_lines.begin() +
          std::min(cfg.oracle_queries(), measured_lines.size()));
  std::optional<TcTree> rebuilt;
  if (updates != nullptr) {
    DatabaseNetwork net = MakeDataset(spec.dataset);
    std::vector<NetworkUpdate> acked = updates->acknowledged;
    if (cfg.corrupt_oracle && !acked.empty()) acked.pop_back();
    ApplyUpdates(acked, &net);
    rebuilt = TcTree::Build(net,
                            {.num_threads = 4, .max_nodes = spec.max_nodes});
  }
  std::vector<std::vector<std::string>> expected;
  for (const std::string& line : lines) {
    auto query = ParseServeQuery(dictionary, line);
    if (!query.ok()) {
      out->Problem("oracle: " + query.status().ToString());
      return;
    }
    if (cfg.corrupt_oracle) query->alpha += 0.05;
    expected.push_back(rebuilt
                           ? ExpectedPayload(*rebuilt, dictionary, *query)
                           : ExpectedPayload(index, dictionary, *query));
  }
  const OracleReport answers = CheckWireAnswers(conn, lines, expected);
  out->attempted += answers.checked;
  out->failed += answers.mismatches;
  if (answers.mismatches > 0) {
    out->Problem(StrFormat("answer oracle: %zu of %zu wrong, first: %s",
                           answers.mismatches, answers.checked,
                           answers.first_problem.c_str()));
  }

  const uint64_t expect_nodes =
      spec.expect_nodes + (cfg.corrupt_oracle ? 1 : 0);
  if (served.index_nodes != expect_nodes) {
    out->Problem(StrFormat("tcf index built %llu nodes, expected %llu",
                           static_cast<unsigned long long>(served.index_nodes),
                           static_cast<unsigned long long>(expect_nodes)));
  }
  const OracleReport checked =
      CheckIndex(index, *served.net, expect_nodes, spec.expect_edges,
                 cfg.oracle_nodes(), SubSeed(cfg.seed, 4));
  out->attempted += checked.checked;
  out->failed += checked.mismatches;
  if (checked.mismatches > 0) {
    out->Problem(StrFormat("index oracle: %zu of %zu wrong, first: %s",
                           checked.mismatches, checked.checked,
                           checked.first_problem.c_str()));
  }
}

/// The traced run's in-process replays (replay.h), after the server has
/// stopped so they have the host to themselves. Fills the replay parts of
/// `in` and cross-checks them against what the server answered.
void RunReplays(const WorkloadSpec& spec, const Served& served,
                const MappedTcTree& index,
                const std::vector<std::string>& history,
                const std::vector<std::string>& replay_lines,
                const std::vector<uint64_t>& wire_hashes,
                const std::string& dir, SpanBuffer& spans, TraceInputs* in,
                Outcome* out) {
  const ItemDictionary& dictionary = served.net->dictionary();
  {
    auto service = QueryService::Open(served.index_path, dictionary,
                                      ServerServiceOptions());
    if (!service.ok()) {
      out->Problem("replay service: " + service.status().ToString());
      return;
    }
    // Reproduce the server's state at the wire replay: the queries it
    // had answered, then the updates it had applied.
    std::vector<ServeQuery> queries;
    for (const std::string& line : history) {
      auto q = ParseServeQuery(dictionary, line);
      if (q.ok()) queries.push_back(std::move(*q));
    }
    (*service)->ExecuteBatch(queries);
    DatabaseNetwork net = MakeDataset(spec.dataset);
    std::optional<TcTree> baseline = MaterializeTcTree(index);
    const TcTreeOptions update_options = {.num_threads = 2,
                                          .max_nodes = spec.max_nodes};
    const std::vector<NetworkUpdate>& acked = in->update_wire.acknowledged;
    const auto split = acked.begin() + static_cast<std::ptrdiff_t>(
                                           in->updates_before_replay);
    ReplayUpdates(net, baseline, **service, {acked.begin(), split},
                  update_options, spans, &in->updates);
    in->replayed = replay_lines.size();
    in->queries = ReplayQueries(**service, index, replay_lines, spans);
    size_t mismatched = 0;
    for (size_t i = 0; i < wire_hashes.size(); ++i) {
      if (wire_hashes[i] != in->queries.answer_hash[i]) ++mismatched;
    }
    out->failed += mismatched;
    if (mismatched > 0) {
      out->Problem(StrFormat(
          "%zu wire replay answers differ from in-process Execute",
          mismatched));
    }
    ReplayUpdates(net, baseline, **service, {split, acked.end()},
                  update_options, spans, &in->updates);
    if (!acked.empty()) {
      // The server's updater and the replay start from the same state
      // and apply the same batches: their work counts must agree.
      if (in->updates.copied != in->update_wire.copied ||
          in->updates.recomputed != in->update_wire.recomputed) {
        out->Problem(StrFormat(
            "update replay copied/recomputed %llu/%llu, server %llu/%llu",
            static_cast<unsigned long long>(in->updates.copied),
            static_cast<unsigned long long>(in->updates.recomputed),
            static_cast<unsigned long long>(in->update_wire.copied),
            static_cast<unsigned long long>(in->update_wire.recomputed)));
      }
    }
  }
  auto build = ReplayBuild(served.net_path, dir + "/replay.tcfi",
                           {.num_threads = 4, .max_nodes = spec.max_nodes},
                           spans);
  if (!build.ok()) {
    out->Problem("build replay: " + build.status().ToString());
    return;
  }
  in->build = *build;
  if (build->nodes != spec.expect_nodes ||
      build->indexed_edges != spec.expect_edges) {
    out->Problem(StrFormat(
        "traced build has %llu nodes and %llu edges",
        static_cast<unsigned long long>(build->nodes),
        static_cast<unsigned long long>(build->indexed_edges)));
  }
}

Outcome RunWorkload(const WorkloadSpec& spec, const Config& cfg) {
  Outcome out;
  const std::string dir =
      StrFormat("%s/%s-seed%llu-%d", cfg.out.c_str(), spec.name,
                static_cast<unsigned long long>(cfg.seed),
                static_cast<int>(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    out.Problem("cannot create " + dir + ": " + ec.message());
    return out;
  }

  Served served;
  if (Status s = SetUp(spec, cfg, dir, &served); !s.ok()) {
    out.Problem("set-up: " + s.ToString());
    return out;
  }
  const ItemDictionary& dictionary = served.net->dictionary();
  auto index = MapTcTree(served.index_path);
  if (!index.ok()) {
    out.Problem("map index: " + index.status().ToString());
    return out;
  }
  const bool churn = spec.updates_per_s > 0;
  auto owned = Connect(served.port, spec.query_connections + (churn ? 1 : 0));
  if (!owned.ok()) {
    out.Problem("connect: " + owned.status().ToString());
    return out;
  }
  std::vector<Client*> conns;
  for (size_t c = 0; c < spec.query_connections; ++c) {
    conns.push_back((*owned)[c].get());
  }

  // Every input below is a function of --seed alone. A traced run
  // draws the same warm-up and measured phase as the untraced run, then
  // the queries of its wire replay and of its own, traced measured phase.
  const double measured_s = cfg.seconds / 2;
  // The capacity probes share the other half of --seconds.
  const double probe_s = std::min(1.0, cfg.seconds / 8);
  const auto num_probes = static_cast<size_t>(measured_s / probe_s);
  QueryStream stream(*served.net, spec.mix, SubSeed(cfg.seed, 1));
  Rng arrivals(SubSeed(cfg.seed, 2));
  const std::vector<int64_t> warm_due =
      PoissonArrivals(arrivals, spec.nominal_qps, cfg.warmup_s(spec));
  const std::vector<std::string> warm_lines =
      NextLines(stream, dictionary, warm_due.size());
  const std::vector<int64_t> measured_due =
      PoissonArrivals(arrivals, spec.nominal_qps, measured_s);
  const std::vector<std::string> measured_lines =
      NextLines(stream, dictionary, measured_due.size());
  std::vector<std::string> replay_lines, traced_lines;
  std::vector<int64_t> traced_due;
  if (cfg.trace) {
    replay_lines = NextLines(stream, dictionary, cfg.replay_queries());
    traced_due = PoissonArrivals(arrivals, spec.nominal_qps, measured_s);
    traced_lines = NextLines(stream, dictionary, traced_due.size());
  }

  // Warm-up: caches fill and lazy state settles before anything is timed.
  Account(RunQueryPhase(conns, warm_lines, warm_due,
                        {.seconds = cfg.warmup_s(spec)}),
          "warm-up", &out);

  // The measured phase, with updates beside it on churn (and beside the
  // capacity probes of an untraced run). In a traced run it is the
  // untraced reference for trace.overhead_frac.
  TraceInputs trace_in;
  auto absorb_updates = [&](UpdateStream::Result u) {
    out.attempted += u.sent;
    out.failed += u.failed;
    if (u.failed > 0) out.Problem("UPDATE stream: " + u.first_error);
    UpdateStream::Result& all = trace_in.update_wire;
    all.acknowledged.insert(all.acknowledged.end(), u.acknowledged.begin(),
                            u.acknowledged.end());
    all.rtt_ms.insert(all.rtt_ms.end(), u.rtt_ms.begin(), u.rtt_ms.end());
    all.server_ms.insert(all.server_ms.end(), u.server_ms.begin(),
                         u.server_ms.end());
    all.copied += u.copied;
    all.recomputed += u.recomputed;
  };
  std::unique_ptr<UpdateStream> updates;
  if (churn) {
    // An untraced run stops its stream after the last probe; four times
    // --seconds outlasts the measured phase and the probes together.
    updates = StartUpdates(spec.updates_per_s,
                           cfg.trace ? measured_s : 4 * cfg.seconds,
                           *served.net, SubSeed(cfg.seed, 3),
                           owned->back().get());
  }
  const PhaseResult measured = RunQueryPhase(conns, measured_lines,
                                             measured_due,
                                             {.seconds = measured_s});
  Account(measured, "measured phase", &out);

  double nominal_p90 = 0;
  const bool nominal_ok = MeetsSlo(measured, spec, &nominal_p90);
  if (!nominal_ok) {
    out.notes.push_back(StrFormat(
        "the nominal rate missed the SLO (p90 %.0f us, limit %.0f us)",
        nominal_p90, spec.slo_p90_us));
  }
  std::vector<Probe> probes;
  double max_qps = 0;
  if (!cfg.trace) {
    max_qps = MaxQpsAtSlo(spec, probe_s, num_probes, conns, stream,
                          dictionary, arrivals, &probes, &out);
  }
  if (updates) {
    absorb_updates(cfg.trace ? updates->Finish() : updates->Stop());
  }

  // Traced run: the unloaded wire replay, against the server state the
  // in-process replay reproduces, then the traced measured phase (spans
  // on every request, tcf_server_pending_units sampled every 100 ms),
  // with its own updates on churn.
  SpanLog span_log;
  SpanBuffer main_spans(0);
  std::vector<uint64_t> wire_hashes;
  PhaseResult traced;
  if (cfg.trace) {
    size_t failed = 0;
    wire_hashes = ReplayWire(*conns[0], replay_lines, main_spans, &failed);
    out.attempted += replay_lines.size();
    out.failed += failed;
    if (failed > 0) out.Problem("wire replay: failed requests");
    trace_in.updates_before_replay = trace_in.update_wire.acknowledged.size();

    if (auto m = ScrapeMetrics(*conns[0]); m.ok()) {
      trace_in.server.before = std::move(*m);
    }
    if (churn) {
      updates = StartUpdates(spec.updates_per_s, measured_s, *served.net,
                             SubSeed(cfg.seed, 5), owned->back().get());
    }
    traced = RunQueryPhase(conns, traced_lines, traced_due,
                           {.seconds = measured_s,
                            .spans = &span_log,
                            .first_request = kLoadRequestBase,
                            .sample_pending = true});
    Account(traced, "traced phase", &out);
    if (auto m = ScrapeMetrics(*conns[0]); m.ok()) {
      trace_in.server.after = std::move(*m);
    }
    if (updates) absorb_updates(updates->Finish());
  }

  CheckOracles(spec, cfg, served, *index, measured_lines,
               churn ? &trace_in.update_wire : nullptr, *conns[0], &out);
  if (cfg.trace && !churn) {
    // A read-only workload still times the update layers in its traced
    // run: two UPDATE batches once the oracles are done. (On the capped
    // SYN index each one is a full rebuild.)
    absorb_updates(StartUpdates(10, 0.2, *served.net, SubSeed(cfg.seed, 3),
                                conns[0])
                       ->Finish());
  }
  for (auto& client : *owned) (void)client->Quit();
  served.server->Stop();

  // The phase this run reports: the measured phase, or the traced one.
  const PhaseResult& reported = cfg.trace ? traced : measured;
  const std::vector<double> latencies = Latencies(reported);
  if (!cfg.trace) {
    out.metrics = {
        {"setup_s", Median(served.setup_s), "s", served.setup_s.size()},
        {"index_s", Median(served.index_s), "s", served.index_s.size()},
        {"query_p50_us", WindowedQuantile(measured, 0.5), "us",
         latencies.size()},
        {"query_p90_us", WindowedQuantile(measured, 0.9), "us",
         latencies.size()},
        {"max_qps_at_slo", max_qps, "1/s", probes.size()},
        {"peak_rss_mb", served.server->PeakRssMb(), "MiB", 1},
    };
    for (const Probe& p : probes) {
      out.notes.push_back(StrFormat(
          "capacity probe %8.0f q/s: p90 %9.1f us, %5.1f%% completed: %s",
          p.rate, p.p90_us, 100 * p.completed_frac, p.pass ? "pass" : "fail"));
    }
  } else {
    trace_in.measured = traced;
    trace_in.measured_s = measured_s;
    trace_in.untraced_p50_us = WindowedQuantile(measured, 0.5);
    trace_in.index_median_s = Median(served.index_s);
    std::vector<std::string> history = warm_lines;
    history.insert(history.end(), measured_lines.begin(),
                   measured_lines.end());
    RunReplays(spec, served, *index, history, replay_lines, wire_hashes, dir,
               main_spans, &trace_in, &out);
    span_log.Merge(main_spans);
    out.metrics = PerLayerMetrics(trace_in, span_log);
    const std::string trace_path = StrFormat(
        "%s/trace-%s-seed%llu.json", cfg.out.c_str(), spec.name,
        static_cast<unsigned long long>(cfg.seed));
    if (Status s = span_log.WriteChromeTrace(trace_path); !s.ok()) {
      out.Problem(s.ToString());
    } else {
      std::printf("trace: %s (%zu spans)\n", trace_path.c_str(),
                  span_log.spans().size());
    }
  }

  // Printed alongside, never gated: the tails have too few samples beyond
  // them for a bound, and the rest explains the gated numbers.
  const UpdateStream::Result& u = trace_in.update_wire;
  out.extra = {
      {"tail.query_p99_us", Quantile(latencies, 0.99), "us", latencies.size()},
      {"tail.query_p999_us", Quantile(latencies, 0.999), "us",
       latencies.size()},
      {"loadgen.late_p90_us", Quantile(reported.late_us, 0.9), "us",
       reported.late_us.size()},
      {"index_rss_mb", served.index_rss_mb, "MiB", 1},
      {"index_file_mb", static_cast<double>(index->FileBytes()) / kMiB,
       "MiB", 1},
      {"update.rtt_p50_ms", Median(u.rtt_ms), "ms", u.rtt_ms.size()},
      {"update.rtt_p90_ms", Quantile(u.rtt_ms, 0.9), "ms", u.rtt_ms.size()},
      {"failed_frac",
       Ratio(static_cast<double>(out.failed),
             static_cast<double>(out.attempted)),
       "ratio", static_cast<size_t>(out.attempted)},
  };
  if (out.correct()) std::filesystem::remove_all(dir, ec);
  return out;
}

// ------------------------------------------------------------ output

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      Number(metrics[i].value).c_str(), metrics[i].unit);
  }
  return json + "}}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.10g %-8s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit, m.samples);
  }
}

bool ParseArgs(int argc, char** argv, Config* cfg) {
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      cfg->workload = value;
    } else if (key == "--seed") {
      cfg->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg->seconds = std::strtod(value.c_str(), nullptr);
      seconds_given = true;
    } else if (key == "--trace") {
      cfg->trace = value.empty() || value == "1";
    } else if (key == "--quick") {
      cfg->quick = true;
    } else if (key == "--json") {
      cfg->json_path = value;
    } else if (key == "--corrupt-oracle") {
      cfg->corrupt_oracle = true;
    } else if (key == "--out") {
      cfg->out = value;
    } else {
      std::fprintf(stderr, "tcf_bench: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (!seconds_given && cfg->quick) cfg->seconds = 2;
  if (cfg->out.empty() || !(cfg->seconds >= 1)) {
    std::fprintf(stderr,
                 "tcf_bench: --out=DIR and --seconds >= 1 are required\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) return 2;
  std::vector<const WorkloadSpec*> specs;
  if (cfg.workload == "all") {
    for (const WorkloadSpec& spec : Workloads()) specs.push_back(&spec);
  } else if (const WorkloadSpec* spec = FindWorkload(cfg.workload)) {
    specs.push_back(spec);
  } else {
    std::fprintf(stderr, "tcf_bench: unknown workload '%s'\n",
                 cfg.workload.c_str());
    return 2;
  }

  bool all_correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> combined;
  std::string json_file = "{";
  for (const WorkloadSpec* spec : specs) {
    std::printf("=== %s (seed %llu, %.0f s measured, %s) ===\n", spec->name,
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? "traced: per-layer metrics" : "end-to-end metrics");
    std::fflush(stdout);
    const Outcome o = RunWorkload(*spec, cfg);
    PrintTable(cfg.trace ? "per-layer:" : "end-to-end:", o.metrics);
    PrintTable("also reported (not gated):", o.extra);
    for (const std::string& n : o.notes) std::printf("%s\n", n.c_str());
    for (const std::string& p : o.problems) {
      std::printf("FAILED: %s\n", p.c_str());
    }
    std::printf("%s: %s, %llu attempted, %llu failed\n", spec->name,
                o.correct() ? "correct" : "INCORRECT",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    all_correct = all_correct && o.correct();
    attempted += o.attempted;
    failed += o.failed;
    for (const Metric& m : o.metrics) {
      combined.push_back(m);
      if (specs.size() > 1) {
        combined.back().name = std::string(spec->name) + "/" + m.name;
      }
    }
    json_file += StrFormat("%s\"%s\": %s", json_file.size() > 1 ? ", " : "",
                           spec->name,
                           ResultJson(o.correct(), o.attempted, o.failed,
                                      o.metrics)
                               .c_str());
  }
  json_file += "}\n";
  if (!cfg.json_path.empty()) {
    std::ofstream f(cfg.json_path);
    f << json_file;
    if (!f) {
      std::fprintf(stderr, "tcf_bench: cannot write %s\n",
                   cfg.json_path.c_str());
    }
  }
  std::printf("%s\n", ResultJson(all_correct, std::max<uint64_t>(1, attempted),
                                 failed, combined)
                          .c_str());
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace tcf::e2e

int main(int argc, char** argv) { return tcf::e2e::Main(argc, argv); }
