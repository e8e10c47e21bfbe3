#ifndef TCF_SERVE_LINE_PROTOCOL_H_
#define TCF_SERVE_LINE_PROTOCOL_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pattern_truss.h"
#include "core/tc_tree_update.h"
#include "serve/query_service.h"
#include "serve/serve_stats.h"
#include "tx/item_dictionary.h"
#include "util/status.h"

namespace tcf {

/// \file
/// \brief The tcf serving-layer wire protocol (see docs/serve-protocol.md).
///
/// A newline-delimited text protocol spoken between `TcpServer` and
/// `Client`. Requests mirror the workload-file format: a query is the
/// literal line `alpha;item,item,...`, and everything else is an
/// upper-case verb — the admin verbs (`PING`, `STATS`, `RELOAD <path>`,
/// `QUIT`), the observability verbs (`METRICS`, which scrapes the
/// server's registry in Prometheus text exposition, and
/// `EXPLAIN <query-line>`, which answers the query and returns its
/// stage-timed trace instead of the trusses), the pipelining verb
/// `BATCH <n>`, which announces that the next n lines are query lines
/// to be answered in order with n back-to-back responses (one round
/// trip for a whole workload chunk), or the mutation verb
/// `UPDATE <n>`, which announces n update lines — `tx <vertex>
/// <name,name,...>` transaction insertions and `edge <u> <v>` edge
/// insertions — applied as one atomic batch through the server's
/// incremental index maintainer (core/tc_tree_update.h) and answered
/// with a single `UPDATED` summary. Every response starts with a
/// versioned status line —
/// `TCF1 OK <KIND> <n>` followed by exactly n payload lines, or
/// `TCF1 ERR <Code> <message>` — so clients can frame replies without
/// sniffing payload contents. All encode/decode routines are pure
/// (no I/O), which is what makes them round-trip testable.

/// Version token that leads every response status line. Bump when the
/// grammar changes incompatibly; clients reject mismatched versions.
/// BATCH is an additive verb: a TCF1 client that never sends it sees a
/// byte-identical protocol, so the token stays.
inline constexpr std::string_view kProtocolVersion = "TCF1";

/// Most query lines one `BATCH <n>` may announce. Bounds the memory a
/// peer can make the server buffer for a single batch (the per-line
/// 1 MiB cap still applies to each member line).
inline constexpr size_t kMaxBatchLines = 16384;

/// Most update lines one `UPDATE <n>` may announce. Smaller than the
/// batch cap: each accepted line mutates the network and (on flush)
/// re-peels the dirty index slice, so a single frame is kept to an
/// amount the updater can absorb in one swap.
inline constexpr size_t kMaxUpdateLines = 4096;

/// One parsed client request.
struct Request {
  enum class Kind {
    kQuery,
    kPing,
    kStats,
    kReload,
    kQuit,
    kBatch,
    kMetrics,
    kExplain,
    kUpdate
  };

  Kind kind = Kind::kQuery;
  /// Per-request deadline budget in milliseconds, set by the additive
  /// `DEADLINE <ms>` prefix (`DEADLINE 50 0.1;i0`). 0 means "none
  /// given": the server applies its `--default-deadline-ms` (which may
  /// itself be 0 = unbounded). A batch's prefix is inherited by every
  /// slot of the batch.
  uint64_t deadline_ms = 0;
  /// kQuery / kExplain: the raw `alpha;item,item,...` line, resolved
  /// against the server's dictionary by ParseServeQuery (names are
  /// server-side state the protocol layer does not have).
  std::string query_line;
  /// kReload: path (on the *server's* filesystem) of the index to load.
  std::string reload_path;
  /// kBatch: how many query lines follow this header line. The lines
  /// themselves are framed by the transport, not carried here.
  size_t batch_size = 0;
  /// kUpdate: how many update lines follow this header line (framed by
  /// the transport, like a batch body).
  size_t update_size = 0;
};

/// Parses one request line (no trailing newline; a trailing '\r' is
/// tolerated). A line starting with a known verb must match the verb
/// grammar exactly — `PING x` is an error, not a query; anything else is
/// treated as a query line and must contain the `alpha;items` separator.
/// An optional `DEADLINE <ms>` prefix (additive, TCF1-compatible) may
/// lead any request and sets `Request::deadline_ms` for what follows.
/// Errors carry 1-based column context.
StatusOr<Request> ParseRequest(std::string_view line);

/// Renders `request` as its wire line (no trailing newline).
/// Exact inverse of ParseRequest for well-formed requests.
std::string EncodeRequest(const Request& request);

/// The decoded status line of a response.
struct ResponseHeader {
  bool ok = false;
  /// OK: response kind — `PONG`, `BYE`, `RELOADED`, `STATS`, `TRUSSES`.
  std::string kind;
  /// OK: number of payload lines that follow the status line.
  size_t payload_lines = 0;
  /// ERR: decoded status code and message.
  Status::Code code = Status::Code::kOk;
  std::string message;

  /// OK() for an ok header, the carried error otherwise.
  Status ToStatus() const;
};

/// `TCF1 OK <KIND> <payload_lines>` (no trailing newline).
std::string EncodeOkHeader(std::string_view kind, size_t payload_lines);

/// `TCF1 ERR <Code> <message>` (no trailing newline). `status` must not
/// be OK. Newlines in the message are flattened to spaces so the error
/// always stays one line on the wire.
std::string EncodeErrHeader(const Status& status);

/// Parses a response status line; rejects version mismatches, unknown
/// shapes, and non-numeric payload counts.
StatusOr<ResponseHeader> ParseResponseHeader(std::string_view line);

/// A pattern truss as it travels on the wire: item *names* (the client
/// has no dictionary) plus the community's vertex and edge lists.
/// Frequencies and per-edge cohesions are deliberately not carried —
/// they are diagnostics, not community membership.
struct WireTruss {
  std::vector<std::string> pattern;  // item names, in ItemId order
  std::vector<VertexId> vertices;   // sorted
  std::vector<Edge> edges;          // canonical order, sorted
};

/// One `TRUSSES` payload line: `names|v1 v2 ...|u1-w1 u2-w2 ...` with
/// names comma-joined. Item names containing `|`, `,`, or newlines are
/// not representable (generator and real-dataset names never do).
std::string EncodeTruss(const ItemDictionary& dictionary,
                        const PatternTruss& truss);

/// Appends a whole `TRUSSES` response to `*out`: the
/// `TCF1 OK TRUSSES <n>` status line and one EncodeTruss line per
/// truss, each newline-terminated. The reply is sized by a digit-count
/// pass first and then written into one allocation, so appending to an
/// empty string leaves it at exactly the reply's length. The one
/// renderer of this wire shape: the query, BATCH and EXPLAIN paths all
/// call it.
void AppendTrussesResponse(const ItemDictionary& dictionary,
                           const std::vector<PatternTruss>& trusses,
                           std::string* out);

/// Inverse of EncodeTruss. Errors carry 1-based column context.
StatusOr<WireTruss> DecodeTruss(std::string_view line);

/// Renders a ServeQuery back into the `alpha;item,item,...` line form
/// (used by the network load generator to replay in-process workloads,
/// and by the slow-query logs). %.17g keeps the alpha bit-exact, so a
/// logged line pasted into `EXPLAIN` replays the identical quantized
/// query.
std::string EncodeQueryLine(const ItemDictionary& dictionary,
                            const ServeQuery& query);

/// Parses one `UPDATE` body line into `update` (appended, not reset):
///   `tx <vertex> <name,name,...>` — insert a transaction at a vertex;
///   `edge <u> <v>`                — insert an undirected edge.
/// Item *names* are resolved against `dictionary` (the client has no
/// ItemId space); an unknown name is kNotFound — streaming updates may
/// only reuse the vocabulary the index was built over, because a brand
/// new item would need a dictionary and vertical-index schema change,
/// which is RELOAD territory. Vertex-range and self-loop checks are
/// the updater's job (ValidateUpdate); this only checks grammar and
/// name resolution. Errors carry 1-based column context.
Status ParseUpdateLine(const ItemDictionary& dictionary,
                       std::string_view line, NetworkUpdate* update);

/// Renders one update (tx lines first, then edge lines) in
/// ParseUpdateLine grammar — the body a client sends after `UPDATE <n>`.
std::vector<std::string> EncodeUpdate(const ItemDictionary& dictionary,
                                      const NetworkUpdate& update);

/// `UPDATED` payload: one `key value` line per apply fact —
/// `update_txs`, `update_edges`, `dirty_items`, `changed_roots`,
/// `shards_swapped`, `nodes`, `copied`, `recomputed`, `full_rebuild`
/// (0/1) and `update_ms`. Same grammar as STATS, so DecodeStats reads
/// it.
std::vector<std::string> EncodeUpdateOutcome(const UpdateOutcome& outcome);

/// `STATS` payload: one `key value` line per ServeReport metric, network
/// counters included. Keys are stable identifiers (see
/// docs/serve-protocol.md); values render with %.6g.
std::vector<std::string> EncodeStats(const ServeReport& report);

/// Inverse of EncodeStats: `key value` pairs in wire order.
StatusOr<std::vector<std::pair<std::string, std::string>>> DecodeStats(
    const std::vector<std::string>& payload);

/// `EXPLAIN` payload: one `key value` line per trace fact — the five
/// `stage_<name>_us` wall spans and their `stage_<name>_cpu_us` CPU
/// twins (docs/observability.md lists the stage names), `total_us`, the
/// walk facts (`visited_nodes`, `retrieved_nodes`, `pruned_subtrees`,
/// `covers_used`, `trusses`), and the booleans `cache_hit` / `composed`
/// as 0/1. Same `key value` grammar as STATS, so DecodeStats reads it.
std::vector<std::string> EncodeExplain(const QueryTrace& trace);

}  // namespace tcf

#endif  // TCF_SERVE_LINE_PROTOCOL_H_
