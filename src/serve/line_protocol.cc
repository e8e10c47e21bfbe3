#include "serve/line_protocol.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>

#include "util/logging.h"
#include "util/string_util.h"

namespace tcf {
namespace {

/// The four admin verbs plus the pipelining verb. Everything else on
/// the request side is a query line (workload-file format).
constexpr std::string_view kPing = "PING";
constexpr std::string_view kStats = "STATS";
constexpr std::string_view kReload = "RELOAD";
constexpr std::string_view kQuit = "QUIT";
constexpr std::string_view kBatch = "BATCH";
constexpr std::string_view kMetrics = "METRICS";
constexpr std::string_view kExplain = "EXPLAIN";
constexpr std::string_view kUpdate = "UPDATE";
constexpr std::string_view kDeadline = "DEADLINE";

/// Update body-line verbs (lower-case: they are data lines, not
/// request verbs, and never collide with the upper-case request space).
constexpr std::string_view kUpdateTx = "tx";
constexpr std::string_view kUpdateEdge = "edge";

/// First whitespace-delimited token of `s`.
std::string_view FirstToken(std::string_view s) {
  const size_t end = s.find_first_of(" \t");
  return end == std::string_view::npos ? s : s.substr(0, end);
}

/// Strips one trailing '\r' (CRLF tolerance — telnet/netcat sessions).
std::string_view StripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

Status AtColumn(size_t col, const std::string& msg) {
  return Status::InvalidArgument(StrFormat("col %zu: %s", col, msg.c_str()));
}

/// Status codes that may cross the wire, in a fixed order so name<->code
/// translation stays total. kOk is excluded: OK responses use the OK
/// grammar, never an ERR line.
constexpr std::array<Status::Code, 10> kWireCodes = {
    Status::Code::kInvalidArgument,  Status::Code::kNotFound,
    Status::Code::kAlreadyExists,    Status::Code::kOutOfRange,
    Status::Code::kCorruption,       Status::Code::kIOError,
    Status::Code::kUnimplemented,    Status::Code::kInternal,
    Status::Code::kDeadlineExceeded, Status::Code::kRateLimited,
};

StatusOr<Status::Code> CodeFromName(std::string_view name) {
  for (Status::Code code : kWireCodes) {
    if (StatusCodeName(code) == name) return code;
  }
  return Status::InvalidArgument(
      StrFormat("unknown status code '%.*s'", static_cast<int>(name.size()),
                name.data()));
}

Status MakeStatus(Status::Code code, std::string msg) {
  switch (code) {
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(msg));
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(std::move(msg));
    case Status::Code::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(msg));
    case Status::Code::kIOError:
      return Status::IOError(std::move(msg));
    case Status::Code::kUnimplemented:
      return Status::Unimplemented(std::move(msg));
    case Status::Code::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case Status::Code::kRateLimited:
      return Status::RateLimited(std::move(msg));
    default:
      return Status::Internal(std::move(msg));
  }
}

/// Length of std::to_chars's rendering of `v`, without rendering it.
size_t DecimalDigits(uint64_t v) {
  size_t n = 1;
  for (; v >= 10000; v /= 10000) n += 4;
  return n + (v >= 10) + (v >= 100) + (v >= 1000);
}

/// Exact length of the EncodeTruss line for `truss`, newline excluded.
size_t TrussLineSize(const ItemDictionary& dictionary,
                     const PatternTruss& truss) {
  // The two '|' plus one separator after every token; each non-empty
  // list then gives back the separator its last token does not have.
  size_t n = 2;
  for (ItemId item : truss.pattern.items()) {
    n += dictionary.Name(item).size() + 1;
  }
  for (VertexId v : truss.vertices) n += DecimalDigits(v) + 1;
  for (const Edge& e : truss.edges) {
    n += DecimalDigits(e.u) + DecimalDigits(e.v) + 2;
  }
  return n - !truss.pattern.empty() - !truss.vertices.empty() -
         !truss.edges.empty();
}

/// Writes the EncodeTruss line for `truss` (no newline) at `p`, which
/// must have TrussLineSize bytes before `end`; returns one past the last
/// byte written.
char* WriteTrussLine(const ItemDictionary& dictionary,
                     const PatternTruss& truss, char* p, char* end) {
  bool first = true;
  for (ItemId item : truss.pattern.items()) {
    if (!first) *p++ = ',';
    const std::string& name = dictionary.Name(item);
    p = std::copy(name.begin(), name.end(), p);
    first = false;
  }
  *p++ = '|';
  first = true;
  for (VertexId v : truss.vertices) {
    if (!first) *p++ = ' ';
    p = std::to_chars(p, end, v).ptr;
    first = false;
  }
  *p++ = '|';
  first = true;
  for (const Edge& e : truss.edges) {
    if (!first) *p++ = ' ';
    p = std::to_chars(p, end, e.u).ptr;
    *p++ = '-';
    p = std::to_chars(p, end, e.v).ptr;
    first = false;
  }
  return p;
}

}  // namespace

StatusOr<Request> ParseRequest(std::string_view line) {
  const std::string_view trimmed = Trim(StripCr(line));
  if (trimmed.empty()) return AtColumn(1, "empty request");
  const std::string_view verb = FirstToken(trimmed);
  const std::string_view rest = Trim(trimmed.substr(verb.size()));

  Request request;
  if (verb == kDeadline) {
    // Additive prefix: `DEADLINE <ms> <request...>` bounds the request
    // that follows. Parsed by recursion so every verb (and the query
    // grammar) accepts it uniformly.
    const std::string_view ms_tok = FirstToken(rest);
    auto ms = ParseUint64(ms_tok);
    if (ms_tok.empty() || !ms.ok() || *ms == 0) {
      return AtColumn(verb.size() + 2,
                      "DEADLINE requires a positive millisecond budget, "
                      "'DEADLINE <ms> <request>'");
    }
    auto inner = ParseRequest(Trim(rest.substr(ms_tok.size())));
    if (!inner.ok()) return inner.status();
    if (inner->deadline_ms != 0) {
      return AtColumn(verb.size() + 2, "duplicate DEADLINE prefix");
    }
    inner->deadline_ms = *ms;
    return inner;
  }
  if (verb == kPing || verb == kStats || verb == kQuit ||
      verb == kMetrics) {
    if (!rest.empty()) {
      return AtColumn(verb.size() + 2,
                      StrFormat("verb %.*s takes no arguments",
                                static_cast<int>(verb.size()), verb.data()));
    }
    request.kind = verb == kPing    ? Request::Kind::kPing
                   : verb == kStats ? Request::Kind::kStats
                   : verb == kQuit  ? Request::Kind::kQuit
                                    : Request::Kind::kMetrics;
    return request;
  }
  if (verb == kExplain) {
    if (rest.empty() || rest.find(';') == std::string_view::npos) {
      return AtColumn(verb.size() + 2,
                      "EXPLAIN requires a query line, "
                      "'EXPLAIN alpha;item,...'");
    }
    request.kind = Request::Kind::kExplain;
    request.query_line = std::string(rest);
    return request;
  }
  if (verb == kReload) {
    if (rest.empty()) {
      return AtColumn(verb.size() + 2, "RELOAD requires an index path");
    }
    request.kind = Request::Kind::kReload;
    request.reload_path = std::string(rest);
    return request;
  }
  if (verb == kBatch) {
    auto n = ParseUint64(rest);
    if (rest.empty() || !n.ok()) {
      return AtColumn(verb.size() + 2,
                      "BATCH requires a line count, 'BATCH <n>'");
    }
    if (*n == 0) {
      return AtColumn(verb.size() + 2, "BATCH of 0 lines is meaningless");
    }
    if (*n > kMaxBatchLines) {
      return AtColumn(verb.size() + 2,
                      StrFormat("BATCH of %llu lines exceeds the limit of "
                                "%zu",
                                static_cast<unsigned long long>(*n),
                                kMaxBatchLines));
    }
    request.kind = Request::Kind::kBatch;
    request.batch_size = static_cast<size_t>(*n);
    return request;
  }
  if (verb == kUpdate) {
    auto n = ParseUint64(rest);
    if (rest.empty() || !n.ok()) {
      return AtColumn(verb.size() + 2,
                      "UPDATE requires a line count, 'UPDATE <n>'");
    }
    if (*n == 0) {
      return AtColumn(verb.size() + 2, "UPDATE of 0 lines is meaningless");
    }
    if (*n > kMaxUpdateLines) {
      return AtColumn(verb.size() + 2,
                      StrFormat("UPDATE of %llu lines exceeds the limit of "
                                "%zu",
                                static_cast<unsigned long long>(*n),
                                kMaxUpdateLines));
    }
    request.kind = Request::Kind::kUpdate;
    request.update_size = static_cast<size_t>(*n);
    return request;
  }
  // Not a verb: a query line. Insist on the `alpha;items` separator here
  // so a typo'd verb ("RELAOD /x") fails fast with a protocol error
  // instead of a confusing alpha-parse error downstream.
  if (trimmed.find(';') == std::string_view::npos) {
    return AtColumn(
        1, StrFormat("'%.*s' is neither a verb (PING, STATS, "
                     "RELOAD <path>, QUIT, BATCH <n>, METRICS, "
                     "EXPLAIN <query>, UPDATE <n>, optionally "
                     "prefixed DEADLINE <ms>) nor a query "
                     "'alpha;item,...'",
                     static_cast<int>(verb.size()), verb.data()));
  }
  request.kind = Request::Kind::kQuery;
  request.query_line = std::string(trimmed);
  return request;
}

std::string EncodeRequest(const Request& request) {
  if (request.deadline_ms != 0) {
    Request bare = request;
    bare.deadline_ms = 0;
    return StrFormat("%.*s %llu %s", static_cast<int>(kDeadline.size()),
                     kDeadline.data(),
                     static_cast<unsigned long long>(request.deadline_ms),
                     EncodeRequest(bare).c_str());
  }
  switch (request.kind) {
    case Request::Kind::kPing:
      return std::string(kPing);
    case Request::Kind::kStats:
      return std::string(kStats);
    case Request::Kind::kQuit:
      return std::string(kQuit);
    case Request::Kind::kReload:
      return std::string(kReload) + " " + request.reload_path;
    case Request::Kind::kMetrics:
      return std::string(kMetrics);
    case Request::Kind::kExplain:
      return std::string(kExplain) + " " + request.query_line;
    case Request::Kind::kBatch:
      return StrFormat("%.*s %zu", static_cast<int>(kBatch.size()),
                       kBatch.data(), request.batch_size);
    case Request::Kind::kUpdate:
      return StrFormat("%.*s %zu", static_cast<int>(kUpdate.size()),
                       kUpdate.data(), request.update_size);
    case Request::Kind::kQuery:
      return request.query_line;
  }
  return {};
}

Status ResponseHeader::ToStatus() const {
  if (ok) return Status::OK();
  return MakeStatus(code, message);
}

std::string EncodeOkHeader(std::string_view kind, size_t payload_lines) {
  return StrFormat("%.*s OK %.*s %zu",
                   static_cast<int>(kProtocolVersion.size()),
                   kProtocolVersion.data(), static_cast<int>(kind.size()),
                   kind.data(), payload_lines);
}

std::string EncodeErrHeader(const Status& status) {
  std::string msg = status.message();
  for (char& c : msg) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  const std::string_view code = StatusCodeName(status.code());
  return StrFormat("%.*s ERR %.*s %s",
                   static_cast<int>(kProtocolVersion.size()),
                   kProtocolVersion.data(), static_cast<int>(code.size()),
                   code.data(), msg.c_str());
}

StatusOr<ResponseHeader> ParseResponseHeader(std::string_view line) {
  const std::string_view trimmed = Trim(StripCr(line));
  const std::string_view version = FirstToken(trimmed);
  if (version != kProtocolVersion) {
    return AtColumn(1, StrFormat("expected version '%.*s', got '%.*s'",
                                 static_cast<int>(kProtocolVersion.size()),
                                 kProtocolVersion.data(),
                                 static_cast<int>(version.size()),
                                 version.data()));
  }
  std::string_view rest = Trim(trimmed.substr(version.size()));
  const std::string_view disposition = FirstToken(rest);
  rest = Trim(rest.substr(disposition.size()));

  ResponseHeader header;
  if (disposition == "OK") {
    const std::string_view kind = FirstToken(rest);
    const std::string_view count = Trim(rest.substr(kind.size()));
    if (kind.empty() || count.empty()) {
      return AtColumn(version.size() + 4,
                      "OK header needs '<KIND> <payload-lines>'");
    }
    auto n = ParseUint64(count);
    if (!n.ok()) {
      return AtColumn(trimmed.size() - count.size() + 1,
                      "payload-line count is not a number: " +
                          std::string(count));
    }
    header.ok = true;
    header.kind = std::string(kind);
    header.payload_lines = static_cast<size_t>(*n);
    return header;
  }
  if (disposition == "ERR") {
    const std::string_view code_name = FirstToken(rest);
    auto code = CodeFromName(code_name);
    if (!code.ok()) return code.status();
    header.ok = false;
    header.code = *code;
    header.message = std::string(Trim(rest.substr(code_name.size())));
    return header;
  }
  return AtColumn(version.size() + 2,
                  StrFormat("expected OK or ERR, got '%.*s'",
                            static_cast<int>(disposition.size()),
                            disposition.data()));
}

std::string EncodeTruss(const ItemDictionary& dictionary,
                        const PatternTruss& truss) {
  std::string out(TrussLineSize(dictionary, truss), '\0');
  WriteTrussLine(dictionary, truss, out.data(), out.data() + out.size());
  return out;
}

void AppendTrussesResponse(const ItemDictionary& dictionary,
                           const std::vector<PatternTruss>& trusses,
                           std::string* out) {
  // Pass 1 counts the bytes, pass 2 writes them: one allocation however
  // many trusses and vertex ids the answer holds.
  const std::string header = EncodeOkHeader("TRUSSES", trusses.size());
  size_t size = header.size() + 1;
  for (const PatternTruss& truss : trusses) {
    size += TrussLineSize(dictionary, truss) + 1;
  }
  const size_t start = out->size();
  out->resize(start + size);
  char* p = out->data() + start;
  char* const end = p + size;
  p = std::copy(header.begin(), header.end(), p);
  *p++ = '\n';
  for (const PatternTruss& truss : trusses) {
    p = WriteTrussLine(dictionary, truss, p, end);
    *p++ = '\n';
  }
  TCF_CHECK(p == end);
}

StatusOr<WireTruss> DecodeTruss(std::string_view line) {
  const std::string_view trimmed = StripCr(line);
  const size_t bar1 = trimmed.find('|');
  const size_t bar2 =
      bar1 == std::string_view::npos ? bar1 : trimmed.find('|', bar1 + 1);
  if (bar2 == std::string_view::npos) {
    return AtColumn(trimmed.size() + 1,
                    "truss line needs 'names|vertices|edges'");
  }
  if (trimmed.find('|', bar2 + 1) != std::string_view::npos) {
    return AtColumn(trimmed.find('|', bar2 + 1) + 1,
                    "truss line has more than three '|' fields");
  }

  WireTruss truss;
  const std::string_view names = trimmed.substr(0, bar1);
  if (!Trim(names).empty()) {
    for (const std::string& name : Split(names, ',')) {
      const std::string_view t = Trim(name);
      if (t.empty()) return AtColumn(1, "empty item name in pattern");
      truss.pattern.emplace_back(t);
    }
  }
  const size_t vertex_col = bar1 + 2;
  for (const std::string& tok :
       SplitWhitespace(trimmed.substr(bar1 + 1, bar2 - bar1 - 1))) {
    auto v = ParseUint64(tok);
    if (!v.ok() || *v >= kInvalidVertex) {  // the sentinel is not an id
      return AtColumn(vertex_col, "bad vertex id '" + tok + "'");
    }
    truss.vertices.push_back(static_cast<VertexId>(*v));
  }
  const size_t edge_col = bar2 + 2;
  for (const std::string& tok : SplitWhitespace(trimmed.substr(bar2 + 1))) {
    const size_t dash = tok.find('-');
    if (dash == std::string::npos) {
      return AtColumn(edge_col, "edge '" + tok + "' is not 'u-v'");
    }
    auto u = ParseUint64(std::string_view(tok).substr(0, dash));
    auto v = ParseUint64(std::string_view(tok).substr(dash + 1));
    if (!u.ok() || !v.ok() || *u >= kInvalidVertex || *v >= kInvalidVertex) {
      return AtColumn(edge_col, "bad edge '" + tok + "'");
    }
    truss.edges.push_back(
        {static_cast<VertexId>(*u), static_cast<VertexId>(*v)});
  }
  return truss;
}

std::string EncodeQueryLine(const ItemDictionary& dictionary,
                            const ServeQuery& query) {
  // %.17g survives the double -> text -> double round trip bit-exactly,
  // so a replayed query quantizes to the same alpha grid point.
  std::string out = StrFormat("%.17g;", query.alpha);
  bool first = true;
  for (ItemId item : query.items.items()) {
    if (!first) out += ',';
    out += dictionary.Name(item);
    first = false;
  }
  return out;
}

Status ParseUpdateLine(const ItemDictionary& dictionary,
                       std::string_view line, NetworkUpdate* update) {
  const std::string_view trimmed = Trim(StripCr(line));
  if (trimmed.empty()) return AtColumn(1, "empty update line");
  const std::string_view verb = FirstToken(trimmed);
  const std::string_view rest = Trim(trimmed.substr(verb.size()));

  if (verb == kUpdateTx) {
    const std::string_view vertex_tok = FirstToken(rest);
    auto v = ParseUint64(vertex_tok);
    if (vertex_tok.empty() || !v.ok() || *v >= kInvalidVertex) {
      return AtColumn(verb.size() + 2,
                      "tx needs 'tx <vertex> <name,name,...>'");
    }
    const std::string_view names = Trim(rest.substr(vertex_tok.size()));
    if (names.empty()) {
      return AtColumn(trimmed.size() + 1, "tx has no item names");
    }
    std::vector<ItemId> ids;
    for (const std::string& name : Split(names, ',')) {
      const std::string_view t = Trim(name);
      if (t.empty()) {
        return AtColumn(trimmed.size() - names.size() + 1,
                        "empty item name in tx");
      }
      auto id = dictionary.Find(t);
      if (!id.ok()) {
        // Streaming updates reuse the built vocabulary; a new item needs
        // a dictionary rebuild (RELOAD), so surface it as NotFound.
        return Status::NotFound(
            StrFormat("unknown item '%.*s' (streaming updates may only "
                      "use items the index was built over)",
                      static_cast<int>(t.size()), t.data()));
      }
      ids.push_back(*id);
    }
    NetworkUpdate::TxInsert tx;
    tx.vertex = static_cast<VertexId>(*v);
    tx.items = Itemset(std::move(ids));
    update->transactions.push_back(std::move(tx));
    return Status::OK();
  }

  if (verb == kUpdateEdge) {
    const std::string_view u_tok = FirstToken(rest);
    const std::string_view v_tok = Trim(rest.substr(u_tok.size()));
    auto u = ParseUint64(u_tok);
    auto v = ParseUint64(v_tok);
    if (u_tok.empty() || v_tok.empty() || !u.ok() || !v.ok() ||
        v_tok.find_first_of(" \t") != std::string_view::npos ||
        *u >= kInvalidVertex || *v >= kInvalidVertex) {
      return AtColumn(verb.size() + 2, "edge needs 'edge <u> <v>'");
    }
    update->edges.push_back(
        {static_cast<VertexId>(*u), static_cast<VertexId>(*v)});
    return Status::OK();
  }

  return AtColumn(1, StrFormat("'%.*s' is not an update line ('tx "
                               "<vertex> <name,...>' or 'edge <u> <v>')",
                               static_cast<int>(verb.size()), verb.data()));
}

std::vector<std::string> EncodeUpdate(const ItemDictionary& dictionary,
                                      const NetworkUpdate& update) {
  std::vector<std::string> lines;
  lines.reserve(update.transactions.size() + update.edges.size());
  for (const NetworkUpdate::TxInsert& tx : update.transactions) {
    std::string out = StrFormat("%.*s %llu ",
                                static_cast<int>(kUpdateTx.size()),
                                kUpdateTx.data(),
                                static_cast<unsigned long long>(tx.vertex));
    bool first = true;
    for (ItemId item : tx.items.items()) {
      if (!first) out += ',';
      out += dictionary.Name(item);
      first = false;
    }
    lines.push_back(std::move(out));
  }
  for (const Edge& e : update.edges) {
    lines.push_back(StrFormat("%.*s %llu %llu",
                              static_cast<int>(kUpdateEdge.size()),
                              kUpdateEdge.data(),
                              static_cast<unsigned long long>(e.u),
                              static_cast<unsigned long long>(e.v)));
  }
  return lines;
}

std::vector<std::string> EncodeUpdateOutcome(const UpdateOutcome& outcome) {
  std::vector<std::string> lines;
  auto add_u = [&lines](const char* key, uint64_t value) {
    lines.push_back(StrFormat("%s %llu", key,
                              static_cast<unsigned long long>(value)));
  };
  auto add_d = [&lines](const char* key, double value) {
    lines.push_back(StrFormat("%s %.6g", key, value));
  };
  add_u("update_txs", outcome.transactions);
  add_u("update_edges", outcome.edges);
  add_u("dirty_items", outcome.dirty_items);
  add_u("changed_roots", outcome.changed_roots);
  add_u("shards_swapped", outcome.shards_swapped);
  add_u("nodes", outcome.tree_nodes);
  add_u("copied", outcome.stats.copied);
  add_u("recomputed", outcome.stats.recomputed);
  add_u("full_rebuild", outcome.stats.full_rebuild ? 1 : 0);
  add_d("update_ms", outcome.apply_ms);
  return lines;
}

std::vector<std::string> EncodeStats(const ServeReport& report) {
  std::vector<std::string> lines;
  auto add_u = [&lines](const char* key, uint64_t value) {
    lines.push_back(StrFormat("%s %llu", key,
                              static_cast<unsigned long long>(value)));
  };
  auto add_d = [&lines](const char* key, double value) {
    lines.push_back(StrFormat("%s %.6g", key, value));
  };
  add_u("queries", report.queries);
  add_u("trusses_returned", report.trusses_returned);
  add_d("wall_seconds", report.wall_seconds);
  add_d("qps", report.qps);
  add_d("mean_us", report.mean_us);
  add_d("p50_us", report.p50_us);
  add_d("p90_us", report.p90_us);
  add_d("p99_us", report.p99_us);
  add_d("max_us", report.max_us);
  add_u("cache_hits", report.cache.hits);
  add_u("cache_misses", report.cache.misses);
  add_d("cache_hit_rate", report.cache.HitRate());
  add_u("cache_entries", report.cache.entries);
  add_u("cache_bytes", report.cache.bytes);
  add_u("snapshot_swaps", report.cache.invalidations);
  add_u("connections_accepted", report.connections_accepted);
  add_u("connections_active", report.connections_active);
  add_u("connections_peak", report.connections_peak);
  add_u("bytes_in", report.bytes_in);
  add_u("bytes_out", report.bytes_out);
  add_u("batches", report.batches);
  add_u("batch_queries", report.batch_queries);
  add_u("batch_max_depth", report.batch_max_depth);
  // Subset-composable cache counters — appended at the end, per the
  // STATS compatibility rule (docs/serve-protocol.md).
  add_u("cache_partial_hits", report.cache.partial_hits);
  add_u("cache_composed_queries", report.cache.composed_queries);
  add_u("cache_admission_rejects", report.cache.admission_rejects);
  // Snapshot-roll counters — appended after the cache block, same rule.
  add_u("reloads", report.reloads);
  add_d("last_reload_ms", report.last_reload_ms);
  // Shard counters — appended after the snapshot-roll block, same rule.
  // All zero (shards 0) on an unsharded backend.
  add_u("shards", report.shards);
  add_u("shard_queries", report.shard_queries);
  add_d("shard_reload_ms", report.shard_reload_ms);
  // Streaming-update counters — appended after the shard block, same
  // rule. All zero while no UPDATE has been accepted.
  add_u("updates", report.updates);
  add_u("update_txs", report.update_txs);
  add_u("update_edges", report.update_edges);
  add_u("update_dirty_items", report.update_dirty_items);
  add_u("update_shards_swapped", report.update_shards_swapped);
  add_d("last_update_ms", report.last_update_ms);
  // Overload-protection counters — appended after the update block,
  // same rule. All zero while no deadline expired and nothing was
  // refused.
  add_u("deadline_exceeded", report.deadline_exceeded);
  add_u("rate_limited", report.rate_limited);
  add_u("shed", report.shed);
  add_u("clients_tracked", report.clients_tracked);
  return lines;
}

std::vector<std::string> EncodeExplain(const QueryTrace& trace) {
  std::vector<std::string> lines;
  auto add_u = [&lines](const char* key, uint64_t value) {
    lines.push_back(StrFormat("%s %llu", key,
                              static_cast<unsigned long long>(value)));
  };
  auto add_d = [&lines](const std::string& key, double value) {
    lines.push_back(StrFormat("%s %.6g", key.c_str(), value));
  };
  for (size_t i = 0; i < kNumQueryStages; ++i) {
    const std::string name(QueryStageName(static_cast<QueryStage>(i)));
    add_d("stage_" + name + "_us", trace.stage_wall_us[i]);
  }
  for (size_t i = 0; i < kNumQueryStages; ++i) {
    const std::string name(QueryStageName(static_cast<QueryStage>(i)));
    add_d("stage_" + name + "_cpu_us", trace.stage_cpu_us[i]);
  }
  add_d("total_us", trace.total_us);
  add_u("visited_nodes", trace.visited_nodes);
  add_u("retrieved_nodes", trace.retrieved_nodes);
  add_u("pruned_subtrees", trace.pruned_subtrees);
  add_u("covers_used", trace.covers_used);
  add_u("trusses", trace.trusses);
  add_u("cache_hit", trace.cache_hit ? 1 : 0);
  add_u("composed", trace.composed ? 1 : 0);
  // Appended (additive TCF1 rule): scatter fan-out of this query, 0 on
  // an unsharded backend.
  add_u("shards_probed", trace.shards_probed);
  // Appended (same rule): streaming updates the backend had applied
  // when this query ran — ties a trace to an index freshness point.
  add_u("updates_applied", trace.updates_applied);
  // Appended (same rule): whether the walk/merge was cut short by the
  // request deadline — the walk facts above are then partial-work
  // counters, not a full answer's.
  add_u("deadline_exceeded", trace.deadline_exceeded ? 1 : 0);
  return lines;
}

StatusOr<std::vector<std::pair<std::string, std::string>>> DecodeStats(
    const std::vector<std::string>& payload) {
  std::vector<std::pair<std::string, std::string>> stats;
  for (const std::string& line : payload) {
    const std::string_view trimmed = Trim(StripCr(line));
    const std::string_view key = FirstToken(trimmed);
    const std::string_view value = Trim(trimmed.substr(key.size()));
    if (key.empty() || value.empty()) {
      return Status::InvalidArgument("stats line '" + line +
                                     "' is not 'key value'");
    }
    stats.emplace_back(std::string(key), std::string(value));
  }
  return stats;
}

}  // namespace tcf
