#ifndef TCF_OBS_TRACE_H_
#define TCF_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/timer.h"

namespace tcf {

/// \file
/// \brief Request-scoped trace spans for the query path
/// (docs/observability.md).
///
/// A QueryTrace rides along one query through QueryService::Execute and
/// records where its microseconds went — the same stage decomposition
/// the paper's evaluation uses (parse → cache probe → compose → walk →
/// serialize), plus the walk facts that explain the numbers (nodes
/// visited, Prop-5.2 prunes, covers reused, composed vs cold). Traces
/// feed three consumers: per-stage latency histograms in the
/// MetricsRegistry, the threshold-gated SlowQueryLog ring, and the
/// `EXPLAIN` protocol verb, which returns one query's trace verbatim.

/// The stages of one query's life, in execution order. kParse and
/// kSerialize happen in the transport (TcpServer); the middle three in
/// QueryService::Execute.
enum class QueryStage {
  kParse = 0,       // request line -> ServeQuery (dictionary resolution)
  kCacheProbe = 1,  // exact-match result-cache lookup
  kCompose = 2,     // cover planning + ComposeTcTreeQuery
  kWalk = 3,        // full QueryTcTree tree walk
  kSerialize = 4,   // trusses -> wire lines
};
inline constexpr size_t kNumQueryStages = 5;

/// Stable lower-case stage name ("parse", "cache_probe", ...), used for
/// metric names and EXPLAIN keys.
std::string_view QueryStageName(QueryStage stage);

/// \brief Everything observed about one query's execution.
///
/// Plain data, written single-threaded by the executing worker; cheap
/// enough to live on the stack of every traced request.
struct QueryTrace {
  /// Per-stage wall time, microseconds (0 for stages that never ran).
  std::array<double, kNumQueryStages> stage_wall_us{};
  /// Per-stage thread-CPU time, microseconds; recorded only when
  /// `sample_cpu` is set. Wall >> CPU on a stage means
  /// queueing/preemption, not work — the first thing an operator checks
  /// on an oversubscribed box.
  std::array<double, kNumQueryStages> stage_cpu_us{};
  /// Opt-in for the stage_cpu_us columns. The thread-CPU clock is a
  /// real syscall per span edge (unlike the vDSO wall clock), so
  /// ambient always-on tracing leaves this off; EXPLAIN — one
  /// deliberately instrumented request — turns it on.
  bool sample_cpu = false;
  /// End-to-end wall time as measured by the enclosing scope (Execute,
  /// or the transport handler for EXPLAIN — which then includes parse
  /// and serialize).
  double total_us = 0;

  // Walk facts (copied from the TcTreeQueryResult / compose stats).
  uint64_t visited_nodes = 0;    // decompositions consulted
  uint64_t retrieved_nodes = 0;  // non-empty trusses collected
  uint64_t pruned_subtrees = 0;  // Prop-5.2 subtree cuts
  uint64_t covers_used = 0;      // cached sub-pattern answers reused
  uint64_t trusses = 0;          // result size
  bool cache_hit = false;        // exact-match hit, no walk at all
  bool composed = false;         // answered by cover composition
  /// Shards this query fanned out to (serve/query_service.h): 1 when
  /// one shard owns every item of the query (always when unsharded),
  /// >1 for a scatter-gather merge.
  uint64_t shards_probed = 0;
  /// Streaming updates the backend had applied when this query ran
  /// (core/tc_tree_update.h) — pins an EXPLAIN to an index freshness
  /// generation, so an answer can be correlated with the update that
  /// last moved it.
  uint64_t updates_applied = 0;
  /// True when the request deadline expired mid-execution: the walk
  /// facts above are partial-work counters, and the transport answered
  /// ERR DeadlineExceeded instead of trusses (docs/robustness.md).
  bool deadline_exceeded = false;

  /// Sum of the recorded stage wall times (the EXPLAIN invariant: this
  /// must land within 10% of total_us on a loopback run).
  double StageSumUs() const;
};

/// \brief RAII stage span: records wall (and, when the trace asks,
/// thread-CPU) time into `trace->stage_*[stage]` on destruction (or
/// Stop(), whichever is first). Null trace = disabled: no clock is
/// read at all, the span costs two branches.
class StageSpan {
 public:
  StageSpan(QueryTrace* trace, QueryStage stage);
  ~StageSpan() { Stop(); }

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

  /// Ends the span early (idempotent).
  void Stop();

 private:
  QueryTrace* trace_;
  QueryStage stage_;
  std::chrono::steady_clock::time_point wall_start_{};
  double cpu_start_s_ = 0;
};

/// \brief Fixed-capacity ring of the slowest-path evidence: queries
/// whose total latency crossed the threshold, oldest evicted first.
///
/// The lock is taken only for queries that *are* slow (and for
/// Snapshot), so the common fast path costs one relaxed load. Entries
/// carry the rendered query line so the operator can replay the exact
/// request (`EXPLAIN <line>`).
class SlowQueryLog {
 public:
  struct Entry {
    uint64_t seq = 0;  // monotonically increasing admission number
    std::string query_line;
    QueryTrace trace;
  };

  /// `threshold_us <= 0` disables the log entirely. `capacity` is
  /// clamped to at least 1.
  SlowQueryLog(double threshold_us, size_t capacity);

  /// True when a total latency of `total_us` qualifies as slow — the
  /// caller checks this *before* paying to render the query line.
  bool Qualifies(double total_us) const {
    return threshold_us_ > 0 && total_us >= threshold_us_;
  }

  /// Admits one slow query (evicting the oldest entry at capacity).
  void Record(std::string query_line, const QueryTrace& trace);

  /// Oldest-to-newest copy of the ring.
  std::vector<Entry> Snapshot() const;

  double threshold_us() const { return threshold_us_; }
  /// Total queries ever admitted (≥ ring size; eviction never decrements).
  uint64_t total_recorded() const;

 private:
  const double threshold_us_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Entry> ring_;
  uint64_t next_seq_ = 0;
};

}  // namespace tcf

#endif  // TCF_OBS_TRACE_H_
