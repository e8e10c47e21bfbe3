#ifndef TCF_SERVE_QUERY_BACKEND_H_
#define TCF_SERVE_QUERY_BACKEND_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "core/tc_tree_snapshot.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/result_cache.h"
#include "serve/serve_stats.h"
#include "tx/item_dictionary.h"
#include "util/status.h"

namespace tcf {

/// One online query: a theme plus its cohesion threshold.
struct ServeQuery {
  Itemset items;
  double alpha = 0;
  /// Compute budget for this query. The transport stamps it from the
  /// request's `DEADLINE <ms>` prefix (or the server-wide
  /// `--default-deadline-ms`); in-process callers that leave it
  /// default-constructed get the unbounded pre-deadline behaviour.
  /// An expired budget surfaces as `deadline_exceeded` on the result —
  /// partial work the transport turns into ERR DeadlineExceeded.
  Deadline deadline{};
};

/// Largest alpha the serving layer accepts. Cohesion arithmetic is
/// fixed-point with 2^-30 resolution (core/cohesion.h), so thresholds
/// beyond 2^32 would overflow the int64 grid; no real network's edge
/// cohesion gets anywhere near this.
inline constexpr double kMaxServeAlpha = 4294967296.0;  // 2^32

/// Parses one workload line: `alpha;name,name,...`. Item names resolve
/// through `dictionary`; `*` (or an empty item list) means every
/// dictionary item. Free-standing so callers can validate a workload
/// before building/loading the (expensive) index a QueryService needs.
///
/// Rejects — with a 1-based column of the offending token (relative to
/// the line after outer trimming) in the message, so protocol ERR
/// replies and workload-file diagnostics can point at the problem —
/// lines with no `;`, alphas that are non-numeric, carry trailing
/// garbage, are NaN, negative, or exceed kMaxServeAlpha
/// (InvalidArgument / OutOfRange), and empty or unknown item names
/// (InvalidArgument / NotFound).
StatusOr<ServeQuery> ParseServeQuery(const ItemDictionary& dictionary,
                                     std::string_view line);

/// \brief What a transport needs from whatever answers queries.
///
/// TcpServer, FileWatcher, the CLI serve loop, and the benches are
/// written against this interface; QueryService (serve/query_service.h)
/// implements it for any shard count, so `--shards=N` changes no caller.
/// The contract: Execute never returns null, answers are in single-tree
/// BFS retrieval order field-for-field, all entry points are
/// thread-safe, and the swaps roll a new index in under live traffic
/// without mixing snapshots inside any one shard's answer.
class QueryBackend {
 public:
  using Result = std::shared_ptr<const TcTreeQueryResult>;

  virtual ~QueryBackend() = default;

  /// Answers one query, consulting caches first. Never returns null.
  Result Execute(const ServeQuery& query) { return Execute(query, nullptr); }

  /// Execute with an explicit trace (the EXPLAIN verb rides on this):
  /// stage spans, walk facts, and total_us are recorded into `*trace`
  /// even when service-wide tracing is off. A null trace falls back to
  /// the backend's tracing option.
  virtual Result Execute(const ServeQuery& query, QueryTrace* trace) = 0;

  /// Answers `queries[i]` into slot i, fanning out over worker threads.
  /// Results are identical to calling Execute serially on each query.
  virtual std::vector<Result> ExecuteBatch(
      const std::vector<ServeQuery>& queries) = 0;

  /// ParseServeQuery against this backend's dictionary.
  virtual StatusOr<ServeQuery> ParseQueryLine(std::string_view line) const = 0;

  /// Installs a new tree snapshot under live traffic (RELOAD).
  virtual void SwapSnapshot(TcTree tree) = 0;

  /// Reloads the TCFI index at `path` under live traffic and returns
  /// the pattern-bearing node count installed. Every RELOAD surface
  /// (the wire verb, `--watch`, operational tooling) funnels through
  /// here. A file MapTcTree rejects leaves the live snapshot untouched.
  virtual StatusOr<size_t> ReloadFromFile(const std::string& path) = 0;

  /// Installs an *incrementally updated* snapshot (the UPDATE verb /
  /// IndexUpdater sink; core/tc_tree_update.h). `changed_roots` are the
  /// layer-1 items whose subtrees may differ from the live snapshot's,
  /// and `dirty_items` the items whose patterns changed. They bound the
  /// work: only the shards owning a changed root swap, and their caches
  /// drop only the entries whose patterns intersect the dirty set.
  /// Returns the number of shard snapshots actually swapped.
  virtual size_t ApplyUpdatedSnapshot(
      std::shared_ptr<const TcTreeSnapshot> snapshot,
      const std::vector<ItemId>& changed_roots,
      const std::vector<ItemId>& dirty_items) = 0;

  /// The same with an owned tree, wrapped as a fresh snapshot.
  size_t ApplyUpdatedSnapshot(TcTree tree,
                              const std::vector<ItemId>& changed_roots,
                              const std::vector<ItemId>& dirty_items) {
    return ApplyUpdatedSnapshot(
        std::make_shared<const TcTreeSnapshot>(std::move(tree)),
        changed_roots, dirty_items);
  }

  virtual const ItemDictionary& dictionary() const = 0;
  virtual size_t num_threads() const = 0;

  virtual ResultCacheStats cache_stats() const = 0;
  /// The fold of metrics() plus the cache counters: what STATS renders.
  virtual ServeReport Report() const = 0;

  /// The backend-owned metrics registry (rendered by the METRICS verb).
  /// Transports and build hooks register their own instruments here.
  virtual MetricsRegistry& metrics() = 0;
  /// The slow-query ring (empty while tracing is off or nothing crossed
  /// the threshold).
  virtual const SlowQueryLog& slow_log() const = 0;
  virtual bool tracing_enabled() const = 0;
};

}  // namespace tcf

#endif  // TCF_SERVE_QUERY_BACKEND_H_
