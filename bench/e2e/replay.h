// The traced run's in-process replays. Each one calls the layers'
// public functions one request at a time, on the same .net/.tcfi files
// the shipped binaries served, and records one span per call (spans.h).
// The per-layer metrics are computed from these spans afterwards.
#ifndef TCF_BENCH_E2E_REPLAY_H_
#define TCF_BENCH_E2E_REPLAY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/tc_tree.h"
#include "core/tc_tree_update.h"
#include "core/tcfi_format.h"
#include "serve/client.h"
#include "serve/query_service.h"
#include "spans.h"

namespace tcf::e2e {

/// Request-id bases, so the spans of different replays never share ids.
inline constexpr uint64_t kReplayRequestBase = 0;
inline constexpr uint64_t kLoadRequestBase = 1000000000;
inline constexpr uint64_t kUpdateRequestBase = 2000000000;
inline constexpr uint64_t kBuildRequestBase = 3000000000;

/// The server's service settings. tcf_bench passes each one to the
/// `tcf serve` child as a flag, and the replays open their QueryService
/// with the same values (ServerServiceOptions), so the two never drift
/// apart when a CLI default changes.
inline constexpr size_t kServerThreads = 2;
inline constexpr size_t kServerCacheMb = 64;
inline constexpr double kServerComposeMinUs = 100.0;

/// The options the `tcf serve` child gives its QueryService.
QueryServiceOptions ServerServiceOptions();

/// Sends `lines` one at a time over `client` (an unloaded server) and
/// records one "client.RoundTrip" span per request. Returns the payload
/// fingerprints (PayloadHash); failures are counted into `*failed`.
std::vector<uint64_t> ReplayWire(Client& client,
                                 const std::vector<std::string>& lines,
                                 SpanBuffer& spans, size_t* failed);

struct QueryReplay {
  std::vector<uint64_t> answer_hash;  // of the EncodeTruss lines
  uint64_t visited_nodes = 0;         // sums over the replayed walks
  uint64_t retrieved_nodes = 0;
  uint64_t pruned_subtrees = 0;
  uint64_t answer_bytes = 0;
};

/// Replays each line through ParseRequest, ParseServeQuery,
/// QueryService::Execute (on `service`), QueryTcTree (on `tree`),
/// EncodeTruss and DecodeTruss, under one "replay.request" root span.
QueryReplay ReplayQueries(QueryService& service, const MappedTcTree& tree,
                          const std::vector<std::string>& lines,
                          SpanBuffer& spans);

struct UpdateReplay {
  uint64_t batches = 0;
  uint64_t copied = 0;
  uint64_t recomputed = 0;
  uint64_t dirty_items = 0;
  uint64_t changed_roots = 0;
  uint64_t full_rebuilds = 0;
};

/// Replays acknowledged UPDATE batches through ComputeDirtyItems,
/// UpdateTcTree and QueryService::ApplyUpdatedSnapshot, applying them to
/// `net`. The first batch updates `baseline` (the served index) while it
/// holds a tree, and resets it; later batches update the tree `service`
/// serves. A second call thus continues where the first stopped. The
/// counts add into `*out`.
void ReplayUpdates(DatabaseNetwork& net, std::optional<TcTree>& baseline,
                   QueryService& service,
                   const std::vector<NetworkUpdate>& batches,
                   const TcTreeOptions& options, SpanBuffer& spans,
                   UpdateReplay* out);

struct BuildReplay {
  TcTreeBuildStats stats;
  uint64_t nodes = 0;
  uint64_t indexed_edges = 0;
  uint64_t memory_bytes = 0;
  uint64_t file_bytes = 0;
};

/// Replays `tcf index`: LoadNetworkFromFile, then InduceThemeNetwork +
/// TrussDecomposition::FromThemeNetwork on every layer-1 item,
/// TcTree::Build, SaveTcTreeBinary to `out_path` and MapTcTree.
StatusOr<BuildReplay> ReplayBuild(const std::string& net_path,
                                  const std::string& out_path,
                                  const TcTreeOptions& options,
                                  SpanBuffer& spans);

}  // namespace tcf::e2e

#endif  // TCF_BENCH_E2E_REPLAY_H_
