#include "serve/line_protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace tcf {
namespace {

using testing::MakeFigureOneNetwork;

// ---------------------------------------------------------------- requests

TEST(LineProtocolTest, RequestRoundTrip) {
  const std::vector<Request> requests = [] {
    std::vector<Request> r(6);
    r[0].kind = Request::Kind::kPing;
    r[1].kind = Request::Kind::kStats;
    r[2].kind = Request::Kind::kQuit;
    r[3].kind = Request::Kind::kReload;
    r[3].reload_path = "/tmp/rebuilt.idx";
    r[4].kind = Request::Kind::kQuery;
    r[4].query_line = "0.25;i1,i3";
    r[5].kind = Request::Kind::kBatch;
    r[5].batch_size = 128;
    return r;
  }();
  for (const Request& request : requests) {
    const std::string wire = EncodeRequest(request);
    auto parsed = ParseRequest(wire);
    ASSERT_TRUE(parsed.ok()) << wire << ": " << parsed.status();
    EXPECT_EQ(parsed->kind, request.kind) << wire;
    EXPECT_EQ(parsed->query_line, request.query_line) << wire;
    EXPECT_EQ(parsed->reload_path, request.reload_path) << wire;
    EXPECT_EQ(parsed->batch_size, request.batch_size) << wire;
  }
}

TEST(LineProtocolTest, ParseBatchHeader) {
  auto one = ParseRequest("BATCH 1");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->kind, Request::Kind::kBatch);
  EXPECT_EQ(one->batch_size, 1u);

  auto limit = ParseRequest("BATCH 16384");  // kMaxBatchLines, inclusive
  ASSERT_TRUE(limit.ok());
  EXPECT_EQ(limit->batch_size, kMaxBatchLines);

  EXPECT_EQ(ParseRequest("BATCH  7\r")->batch_size, 7u);  // CRLF + spaces

  const struct {
    const char* line;
    const char* wants;
  } kBad[] = {
      {"BATCH", "requires a line count"},
      {"BATCH   ", "requires a line count"},
      {"BATCH x", "requires a line count"},
      {"BATCH 3x", "requires a line count"},
      {"BATCH -1", "requires a line count"},
      {"BATCH 0", "meaningless"},
      {"BATCH 16385", "exceeds the limit"},
      {"batch 3", "neither a verb"},  // verbs are upper-case
  };
  for (const auto& c : kBad) {
    auto parsed = ParseRequest(c.line);
    ASSERT_FALSE(parsed.ok()) << "'" << c.line << "' should not parse";
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << c.line;
    EXPECT_NE(parsed.status().message().find(c.wants), std::string::npos)
        << "'" << c.line << "' -> " << parsed.status();
  }
}

TEST(LineProtocolTest, ParseRequestToleratesCrAndWhitespace) {
  EXPECT_EQ(ParseRequest("PING\r")->kind, Request::Kind::kPing);
  EXPECT_EQ(ParseRequest("  QUIT  ")->kind, Request::Kind::kQuit);
  auto reload = ParseRequest("RELOAD   /a b/c.idx \r");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->reload_path, "/a b/c.idx");  // inner spaces kept
  // A query line passes through verbatim (post-trim) for ParseServeQuery.
  auto query = ParseRequest(" 0.1 ; i1 , i2 ");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->query_line, "0.1 ; i1 , i2");
}

TEST(LineProtocolTest, ParseRequestMalformedTable) {
  const struct {
    const char* line;
    const char* wants;  // substring of the error message
  } kCases[] = {
      {"", "empty request"},
      {"   \r", "empty request"},
      {"PING now", "takes no arguments"},
      {"STATS verbose", "takes no arguments"},
      {"QUIT 1", "takes no arguments"},
      {"RELOAD", "requires an index path"},
      {"RELOAD   ", "requires an index path"},
      {"BOGUS", "neither a verb"},
      {"RELAOD /x.idx", "neither a verb"},  // typo'd verb, no ';'
      {"ping", "neither a verb"},           // verbs are upper-case
  };
  for (const auto& c : kCases) {
    auto parsed = ParseRequest(c.line);
    ASSERT_FALSE(parsed.ok()) << "'" << c.line << "' should not parse";
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << c.line;
    EXPECT_NE(parsed.status().message().find(c.wants), std::string::npos)
        << "'" << c.line << "' -> " << parsed.status();
    EXPECT_NE(parsed.status().message().find("col "), std::string::npos)
        << "'" << c.line << "' error lacks column context";
  }
}

TEST(LineProtocolTest, DeadlinePrefixLeadsAnyRequest) {
  // The additive `DEADLINE <ms>` prefix composes with every verb and
  // with the bare query grammar.
  auto query = ParseRequest("DEADLINE 50 0.1;i0,i1");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->kind, Request::Kind::kQuery);
  EXPECT_EQ(query->deadline_ms, 50u);
  EXPECT_EQ(query->query_line, "0.1;i0,i1");

  auto batch = ParseRequest("DEADLINE 200 BATCH 16");
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->kind, Request::Kind::kBatch);
  EXPECT_EQ(batch->deadline_ms, 200u);
  EXPECT_EQ(batch->batch_size, 16u);

  auto ping = ParseRequest("DEADLINE 5 PING\r");
  ASSERT_TRUE(ping.ok()) << ping.status();
  EXPECT_EQ(ping->kind, Request::Kind::kPing);
  EXPECT_EQ(ping->deadline_ms, 5u);

  // A request without the prefix carries no budget of its own.
  EXPECT_EQ(ParseRequest("PING")->deadline_ms, 0u);
}

TEST(LineProtocolTest, DeadlinePrefixRoundTripsThroughEncode) {
  Request request;
  request.kind = Request::Kind::kQuery;
  request.query_line = "0.25;i1,i3";
  request.deadline_ms = 75;
  const std::string wire = EncodeRequest(request);
  EXPECT_EQ(wire, "DEADLINE 75 0.25;i1,i3");
  auto parsed = ParseRequest(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->deadline_ms, 75u);
  EXPECT_EQ(parsed->query_line, request.query_line);
}

TEST(LineProtocolTest, DeadlinePrefixMalformedTable) {
  const struct {
    const char* line;
    const char* wants;
  } kBad[] = {
      {"DEADLINE", "positive millisecond budget"},
      {"DEADLINE PING", "positive millisecond budget"},
      {"DEADLINE 0 PING", "positive millisecond budget"},
      {"DEADLINE -5 PING", "positive millisecond budget"},
      {"DEADLINE 5", "empty request"},  // nothing left to bound
      {"DEADLINE 5 DEADLINE 6 PING", "duplicate DEADLINE prefix"},
  };
  for (const auto& c : kBad) {
    auto parsed = ParseRequest(c.line);
    ASSERT_FALSE(parsed.ok()) << "'" << c.line << "' should not parse";
    EXPECT_NE(parsed.status().message().find(c.wants), std::string::npos)
        << "'" << c.line << "' -> " << parsed.status();
  }
}

// --------------------------------------------------------------- responses

TEST(LineProtocolTest, ResponseHeaderRoundTrip) {
  auto ok = ParseResponseHeader(EncodeOkHeader("TRUSSES", 42));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->ok);
  EXPECT_EQ(ok->kind, "TRUSSES");
  EXPECT_EQ(ok->payload_lines, 42u);
  EXPECT_TRUE(ok->ToStatus().ok());

  const Status errors[] = {
      Status::InvalidArgument("col 3: bad alpha"),
      Status::NotFound("col 5: unknown item 'x'"),
      Status::OutOfRange("col 1: alpha overflow"),
      Status::Corruption("index header mangled"),
      Status::IOError("cannot open index"),
      Status::Unimplemented("RELOAD is disabled"),
      Status::Internal("unhandled"),
  };
  for (const Status& status : errors) {
    auto header = ParseResponseHeader(EncodeErrHeader(status));
    ASSERT_TRUE(header.ok()) << status;
    EXPECT_FALSE(header->ok);
    EXPECT_EQ(header->code, status.code());
    EXPECT_EQ(header->message, status.message());
    EXPECT_EQ(header->ToStatus(), status);
  }
}

TEST(LineProtocolTest, EncodeErrHeaderFlattensNewlines) {
  const std::string wire =
      EncodeErrHeader(Status::Internal("line one\nline two"));
  EXPECT_EQ(wire.find('\n'), std::string::npos);
  auto header = ParseResponseHeader(wire);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->message, "line one line two");
}

TEST(LineProtocolTest, ParseResponseHeaderMalformedTable) {
  const char* kCases[] = {
      "",                        // no version
      "TCF2 OK PONG 0",          // wrong version
      "tcf1 OK PONG 0",          // version is case-sensitive
      "TCF1",                    // no disposition
      "TCF1 MAYBE PONG 0",       // unknown disposition
      "TCF1 OK PONG",            // missing payload count
      "TCF1 OK PONG x",          // non-numeric payload count
      "TCF1 OK PONG -1",         // negative payload count
      "TCF1 ERR Bogus message",  // unknown status code
  };
  for (const char* line : kCases) {
    EXPECT_FALSE(ParseResponseHeader(line).ok()) << "'" << line << "'";
  }
}

// ------------------------------------------------------------ truss payload

TEST(LineProtocolTest, TrussRoundTrip) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  const TcTreeQueryResult result =
      QueryTcTree(tree, Itemset{0}, 0.1);
  ASSERT_FALSE(result.trusses.empty());
  for (const PatternTruss& truss : result.trusses) {
    const std::string wire = EncodeTruss(net.dictionary(), truss);
    auto decoded = DecodeTruss(wire);
    ASSERT_TRUE(decoded.ok()) << wire << ": " << decoded.status();
    ASSERT_EQ(decoded->pattern.size(), truss.pattern.size());
    for (size_t i = 0; i < truss.pattern.size(); ++i) {
      EXPECT_EQ(decoded->pattern[i],
                net.dictionary().Name(truss.pattern.items()[i]));
    }
    EXPECT_EQ(decoded->vertices, truss.vertices);
    EXPECT_EQ(decoded->edges, truss.edges);
  }
}

TEST(LineProtocolTest, TrussEmptyFieldsRoundTrip) {
  auto empty = DecodeTruss("||");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->pattern.empty());
  EXPECT_TRUE(empty->vertices.empty());
  EXPECT_TRUE(empty->edges.empty());

  auto no_edges = DecodeTruss("a,b|7 9|");
  ASSERT_TRUE(no_edges.ok());
  EXPECT_EQ(no_edges->pattern, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(no_edges->vertices, (std::vector<VertexId>{7, 9}));
  EXPECT_TRUE(no_edges->edges.empty());
}

TEST(LineProtocolTest, DecodeTrussMalformedTable) {
  const char* kCases[] = {
      "no bars at all",   // needs two '|'
      "one|bar",          // needs two '|'
      "a|1|1-2|extra",    // too many fields
      "a|x|1-2",          // non-numeric vertex
      "a|1 -2|",          // negative vertex
      "a|1|12",           // edge without '-'
      "a|1|1-x",          // non-numeric edge endpoint
      "a|1|-2",           // missing endpoint
      "a|4294967295|",    // the kInvalidVertex sentinel is not an id
      "a|1|1-4294967295", // ...nor a valid edge endpoint
      ",b|1|1-2",         // empty item name
      "a,,b|1|1-2",       // empty item name in the middle
  };
  for (const char* line : kCases) {
    auto decoded = DecodeTruss(line);
    ASSERT_FALSE(decoded.ok()) << "'" << line << "'";
    EXPECT_NE(decoded.status().message().find("col "), std::string::npos)
        << "'" << line << "' error lacks column context";
  }
}

// -------------------------------------------------- TRUSSES response writer

/// The byte-exact reference for one truss line, in its plainest form: a
/// string per truss, a std::to_string temporary per id. The server and
/// every bench oracle render through the writer under test, so only
/// this independent renderer can see a byte drift.
std::string ReferenceEncodeTruss(const ItemDictionary& dictionary,
                                 const PatternTruss& truss) {
  std::string out;
  bool first = true;
  for (ItemId item : truss.pattern.items()) {
    if (!first) out += ',';
    out += dictionary.Name(item);
    first = false;
  }
  out += '|';
  first = true;
  for (VertexId v : truss.vertices) {
    if (!first) out += ' ';
    out += std::to_string(v);
    first = false;
  }
  out += '|';
  first = true;
  for (const Edge& e : truss.edges) {
    if (!first) out += ' ';
    out += std::to_string(e.u);
    out += '-';
    out += std::to_string(e.v);
    first = false;
  }
  return out;
}

std::string ReferenceTrussesResponse(const ItemDictionary& dictionary,
                                     const std::vector<PatternTruss>& trusses) {
  std::string out = EncodeOkHeader("TRUSSES", trusses.size());
  out += '\n';
  for (const PatternTruss& truss : trusses) {
    out += ReferenceEncodeTruss(dictionary, truss);
    out += '\n';
  }
  return out;
}

/// The writer against the reference on `trusses`: the whole response,
/// header included, into an empty buffer and behind existing bytes;
/// EncodeTruss per truss; and every payload line back through
/// DecodeTruss.
void ExpectWriterMatchesReference(const ItemDictionary& dictionary,
                                  const std::vector<PatternTruss>& trusses,
                                  const std::string& context) {
  SCOPED_TRACE(context);
  const std::string want = ReferenceTrussesResponse(dictionary, trusses);

  std::string got;
  AppendTrussesResponse(dictionary, trusses, &got);
  ASSERT_EQ(got, want);
#if defined(__GLIBCXX__)
  // One exact allocation: libstdc++ gives a fresh string exactly what
  // one resize asks for once that is past twice the inline capacity.
  if (got.size() > 30) {
    EXPECT_EQ(got.capacity(), got.size());
  }
#endif

  std::string appended = "TCF1 OK PONG 0\n";
  AppendTrussesResponse(dictionary, trusses, &appended);
  EXPECT_EQ(appended, "TCF1 OK PONG 0\n" + want);

  std::vector<std::string> lines = Split(got, '\n');
  ASSERT_EQ(lines.size(), trusses.size() + 2);  // header + payload + tail
  EXPECT_TRUE(lines.back().empty());
  auto header = ParseResponseHeader(lines[0]);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->kind, "TRUSSES");
  EXPECT_EQ(header->payload_lines, trusses.size());
  for (size_t i = 0; i < trusses.size(); ++i) {
    const PatternTruss& truss = trusses[i];
    EXPECT_EQ(EncodeTruss(dictionary, truss),
              ReferenceEncodeTruss(dictionary, truss));
    auto decoded = DecodeTruss(lines[i + 1]);
    ASSERT_TRUE(decoded.ok()) << lines[i + 1] << ": " << decoded.status();
    ASSERT_EQ(decoded->pattern.size(), truss.pattern.size());
    for (size_t j = 0; j < truss.pattern.size(); ++j) {
      EXPECT_EQ(decoded->pattern[j],
                dictionary.Name(truss.pattern.items()[j]));
    }
    EXPECT_EQ(decoded->vertices, truss.vertices);
    EXPECT_EQ(decoded->edges, truss.edges);
  }
}

TEST(LineProtocolTest, TrussesWriterMatchesReferenceAtDigitBoundaries) {
  ItemDictionary dictionary;
  const ItemId a = dictionary.GetOrAdd("a");
  const ItemId b = dictionary.GetOrAdd("b");
  const ItemId long1 = dictionary.GetOrAdd(std::string(300, 'x') + "_1");
  const ItemId long2 = dictionary.GetOrAdd("Ristorante_" +
                                           std::string(120, 'y') + "-" +
                                           std::to_string(99999));

  // 0, 9, 10, 99, 100, ... every 10^k - 1 and 10^k a VertexId can hold,
  // then the largest id below the kInvalidVertex sentinel.
  std::vector<VertexId> ids = {0};
  for (uint64_t p = 10; p < kInvalidVertex; p *= 10) {
    ids.push_back(static_cast<VertexId>(p - 1));
    ids.push_back(static_cast<VertexId>(p));
  }
  ids.push_back(kInvalidVertex - 1);
  ASSERT_EQ(ids.back(), 4294967294u);

  std::vector<Edge> edges;
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    edges.push_back({ids[i], ids[i + 1]});
    edges.push_back({ids[i], ids.back()});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  auto make = [](Itemset pattern, std::vector<VertexId> vertices,
                 std::vector<Edge> edge_list) {
    PatternTruss t;
    t.pattern = std::move(pattern);
    t.vertices = std::move(vertices);
    t.edges = std::move(edge_list);
    return t;
  };

  // Each id alone, as a vertex and as both ends of an edge.
  for (VertexId v : ids) {
    const VertexId next = v == ids.back() ? 0 : v + 1;
    ExpectWriterMatchesReference(
        dictionary,
        {make(Itemset{a}, {v}, {{std::min(v, next), std::max(v, next)}})},
        "id " + std::to_string(v));
  }

  const std::vector<PatternTruss> shapes = {
      make(Itemset{}, {}, {}),                 // "||"
      make(Itemset{a, b}, {}, {}),             // pattern only
      make(Itemset{}, ids, {}),                // vertices only
      make(Itemset{}, {}, edges),              // edges only
      make(Itemset{a}, {}, edges),             // no vertex list
      make(Itemset{b}, ids, {}),               // no edge list
      make(Itemset{a, b, long1, long2}, ids, edges),
      make(Itemset{long1, long2}, {7}, {{0, 4294967294u}}),
  };
  for (size_t i = 0; i < shapes.size(); ++i) {
    ExpectWriterMatchesReference(dictionary, {shapes[i]},
                                 "shape " + std::to_string(i));
  }
  ExpectWriterMatchesReference(dictionary, shapes, "all shapes");
  ExpectWriterMatchesReference(dictionary, {}, "no trusses");

  // Truss counts across the header's own digit boundaries.
  for (size_t count : {9u, 10u, 99u, 100u, 1000u}) {
    std::vector<PatternTruss> many;
    for (size_t i = 0; i < count; ++i) many.push_back(shapes[i % 8]);
    ExpectWriterMatchesReference(dictionary, many,
                                 std::to_string(count) + " trusses");
  }
}

TEST(LineProtocolTest, TrussesWriterMatchesReferenceOnRandomAnswers) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  ExpectWriterMatchesReference(net.dictionary(),
                               QueryTcTree(tree, Itemset{0}, 0.1).trusses,
                               "Figure 1, {0} at 0.1");

  // Random trusses whose ids span every digit length: a uniform digit
  // count first, then a uniform value of that length.
  ItemDictionary dictionary;
  for (int i = 0; i < 12; ++i) {
    dictionary.GetOrAdd("item" + std::string(static_cast<size_t>(i * 7), 'z') +
                        std::to_string(i));
  }
  Rng rng(20260417);
  auto random_id = [&rng] {
    const uint64_t digits = 1 + rng.NextUint64(10);
    uint64_t lo = 1;
    for (uint64_t d = 1; d < digits; ++d) lo *= 10;
    const uint64_t hi = std::min<uint64_t>(lo * 10, kInvalidVertex);
    return static_cast<VertexId>(digits == 1 ? rng.NextUint64(10)
                                             : lo + rng.NextUint64(hi - lo));
  };
  for (int round = 0; round < 200; ++round) {
    std::vector<PatternTruss> trusses(rng.NextUint64(6));
    for (PatternTruss& t : trusses) {
      std::vector<ItemId> items;
      for (uint64_t i = rng.NextUint64(5); i > 0; --i) {
        items.push_back(static_cast<ItemId>(rng.NextUint64(12)));
      }
      t.pattern = Itemset(std::move(items));
      for (uint64_t i = rng.NextUint64(40); i > 0; --i) {
        t.vertices.push_back(random_id());
      }
      std::sort(t.vertices.begin(), t.vertices.end());
      for (uint64_t i = rng.NextUint64(40); i > 0; --i) {
        const VertexId u = random_id();
        const VertexId v = random_id();
        if (u != v) t.edges.push_back({std::min(u, v), std::max(u, v)});
      }
      std::sort(t.edges.begin(), t.edges.end());
    }
    ExpectWriterMatchesReference(dictionary, trusses,
                                 "round " + std::to_string(round));
  }
}

// The one-renderer rule, checked where it could silently regress: the
// query, BATCH and EXPLAIN paths of the server each render TRUSSES
// through AppendTrussesResponse, and nothing there hand-rolls the shape.
TEST(LineProtocolTest, ServerRendersTrussesOnlyThroughTheWriter) {
  std::ifstream in(std::string(TCF_SOURCE_DIR) + "/src/serve/tcp_server.cc");
  ASSERT_TRUE(in.good());
  const std::string source((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  auto count = [&source](std::string_view needle) {
    size_t n = 0;
    for (size_t pos = source.find(needle); pos != std::string::npos;
         pos = source.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  for (const char* handler :
       {"TcpServer::HandleQuery(", "TcpServer::HandleExplain(",
        "TcpServer::HandleBatch("}) {
    const size_t begin = source.find(handler);
    ASSERT_NE(begin, std::string::npos) << handler;
    const size_t end = source.find("\n}\n", begin);
    const std::string body = source.substr(begin, end - begin);
    EXPECT_NE(body.find("AppendTrussesResponse("), std::string::npos)
        << handler;
  }
  EXPECT_EQ(count("AppendTrussesResponse("), 3u);
  EXPECT_EQ(count("EncodeTruss("), 0u);
  EXPECT_EQ(count("\"TRUSSES\""), 0u);
}

// ----------------------------------------------------- query-line round trip

TEST(LineProtocolTest, QueryLineRoundTrip) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  ServeQuery query;
  query.items = Itemset{0, 1};
  query.alpha = 0.1 + 1e-13;  // needs %.17g to survive text round trip
  const std::string line = EncodeQueryLine(net.dictionary(), query);
  auto parsed = ParseServeQuery(net.dictionary(), line);
  ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status();
  EXPECT_EQ(parsed->items, query.items);
  EXPECT_EQ(parsed->alpha, query.alpha);  // bit-exact
}

// ------------------------------------------------------------ stats payload

TEST(LineProtocolTest, StatsRoundTrip) {
  ServeReport report;
  report.queries = 1234;
  report.trusses_returned = 99;
  report.qps = 5678.5;
  report.p99_us = 42.25;
  report.cache.hits = 10;
  report.cache.misses = 30;
  report.cache.partial_hits = 7;
  report.cache.composed_queries = 5;
  report.cache.admission_rejects = 2;
  report.connections_accepted = 3;
  report.connections_active = 2;
  report.connections_peak = 3;
  report.bytes_in = 1000;
  report.bytes_out = 9000;
  report.batches = 4;
  report.batch_queries = 64;
  report.batch_max_depth = 32;
  report.reloads = 2;
  report.last_reload_ms = 12.5;
  report.shards = 4;
  report.shard_queries = 2468;
  report.shard_reload_ms = 3.25;
  report.updates = 3;
  report.update_txs = 5;
  report.update_edges = 2;
  report.update_dirty_items = 9;
  report.update_shards_swapped = 4;
  report.last_update_ms = 6.5;
  report.deadline_exceeded = 11;
  report.rate_limited = 13;
  report.shed = 6;
  report.clients_tracked = 2;

  const std::vector<std::string> lines = EncodeStats(report);
  auto decoded = DecodeStats(lines);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), lines.size());
  auto find = [&](const std::string& key) -> std::string {
    for (const auto& [k, v] : *decoded) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "missing stats key " << key;
    return {};
  };
  EXPECT_EQ(find("queries"), "1234");
  EXPECT_EQ(find("trusses_returned"), "99");
  EXPECT_EQ(find("qps"), "5678.5");
  EXPECT_EQ(find("p99_us"), "42.25");
  EXPECT_EQ(find("cache_hits"), "10");
  EXPECT_EQ(find("cache_hit_rate"), "0.25");
  EXPECT_EQ(find("connections_accepted"), "3");
  EXPECT_EQ(find("connections_active"), "2");
  EXPECT_EQ(find("connections_peak"), "3");
  EXPECT_EQ(find("bytes_in"), "1000");
  EXPECT_EQ(find("bytes_out"), "9000");
  EXPECT_EQ(find("batches"), "4");
  EXPECT_EQ(find("batch_queries"), "64");
  EXPECT_EQ(find("batch_max_depth"), "32");
  // The composable-cache keys are appended at the end (additive TCF1
  // change; see docs/serve-protocol.md).
  EXPECT_EQ(find("cache_partial_hits"), "7");
  EXPECT_EQ(find("cache_composed_queries"), "5");
  EXPECT_EQ(find("cache_admission_rejects"), "2");
  // ...followed by the snapshot-roll keys (same additive rule).
  EXPECT_EQ(find("reloads"), "2");
  EXPECT_EQ(find("last_reload_ms"), "12.5");
  // ...followed by the shard keys (same additive rule; all zero on an
  // unsharded backend).
  EXPECT_EQ(find("shards"), "4");
  EXPECT_EQ(find("shard_queries"), "2468");
  EXPECT_EQ(find("shard_reload_ms"), "3.25");
  // ...followed by the streaming-update keys (same additive rule; all
  // zero until the first UPDATE frame).
  EXPECT_EQ(find("updates"), "3");
  EXPECT_EQ(find("update_txs"), "5");
  EXPECT_EQ(find("update_edges"), "2");
  EXPECT_EQ(find("update_dirty_items"), "9");
  EXPECT_EQ(find("update_shards_swapped"), "4");
  EXPECT_EQ(find("last_update_ms"), "6.5");
  // ...followed by the overload-protection keys (same additive rule;
  // all zero until a deadline, rate limit, or shed fires).
  EXPECT_EQ(find("deadline_exceeded"), "11");
  EXPECT_EQ(find("rate_limited"), "13");
  EXPECT_EQ(find("shed"), "6");
  EXPECT_EQ(find("clients_tracked"), "2");
  EXPECT_EQ(lines.back(), "clients_tracked 2");

  EXPECT_FALSE(DecodeStats({"keyonly"}).ok());
  EXPECT_FALSE(DecodeStats({""}).ok());
}

// ----------------------------------------------- METRICS / EXPLAIN (PR 6)

TEST(LineProtocolTest, MetricsAndExplainRequestRoundTrip) {
  Request metrics;
  metrics.kind = Request::Kind::kMetrics;
  EXPECT_EQ(EncodeRequest(metrics), "METRICS");
  auto parsed = ParseRequest("METRICS");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, Request::Kind::kMetrics);

  Request explain;
  explain.kind = Request::Kind::kExplain;
  explain.query_line = "0.25;i1,i3";
  const std::string wire = EncodeRequest(explain);
  EXPECT_EQ(wire, "EXPLAIN 0.25;i1,i3");
  parsed = ParseRequest(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, Request::Kind::kExplain);
  EXPECT_EQ(parsed->query_line, "0.25;i1,i3");

  // EXPLAIN needs a query line that at least looks like one.
  EXPECT_FALSE(ParseRequest("EXPLAIN").ok());
  EXPECT_FALSE(ParseRequest("EXPLAIN notaquery").ok());
}

TEST(LineProtocolTest, EncodeExplainRoundTripsThroughDecodeStats) {
  QueryTrace trace;
  trace.stage_wall_us[static_cast<size_t>(QueryStage::kParse)] = 1.5;
  trace.stage_wall_us[static_cast<size_t>(QueryStage::kCacheProbe)] = 2.0;
  trace.stage_wall_us[static_cast<size_t>(QueryStage::kWalk)] = 140.25;
  trace.stage_cpu_us[static_cast<size_t>(QueryStage::kWalk)] = 139.0;
  trace.total_us = 150.0;
  trace.visited_nodes = 42;
  trace.retrieved_nodes = 7;
  trace.pruned_subtrees = 12;
  trace.covers_used = 2;
  trace.trusses = 7;
  trace.cache_hit = false;
  trace.composed = true;
  trace.shards_probed = 3;

  const std::vector<std::string> lines = EncodeExplain(trace);
  // Same `key value` grammar as STATS, so the same decoder reads it.
  auto pairs = DecodeStats(lines);
  ASSERT_TRUE(pairs.ok());
  auto find = [&](const std::string& key) -> std::string {
    for (const auto& [k, v] : *pairs) {
      if (k == key) return v;
    }
    return "<missing " + key + ">";
  };
  // One wall and one CPU key per stage, in stage order first.
  ASSERT_GE(lines.size(), 2 * kNumQueryStages);
  for (size_t i = 0; i < kNumQueryStages; ++i) {
    const std::string name(QueryStageName(static_cast<QueryStage>(i)));
    EXPECT_EQ(lines[i].rfind("stage_" + name + "_us ", 0), 0u) << lines[i];
    EXPECT_EQ(lines[kNumQueryStages + i].rfind(
                  "stage_" + name + "_cpu_us ", 0),
              0u)
        << lines[kNumQueryStages + i];
  }
  EXPECT_EQ(find("stage_parse_us"), "1.5");
  EXPECT_EQ(find("stage_cache_probe_us"), "2");
  EXPECT_EQ(find("stage_walk_us"), "140.25");
  EXPECT_EQ(find("stage_walk_cpu_us"), "139");
  EXPECT_EQ(find("total_us"), "150");
  EXPECT_EQ(find("visited_nodes"), "42");
  EXPECT_EQ(find("retrieved_nodes"), "7");
  EXPECT_EQ(find("pruned_subtrees"), "12");
  EXPECT_EQ(find("covers_used"), "2");
  EXPECT_EQ(find("trusses"), "7");
  EXPECT_EQ(find("cache_hit"), "0");
  EXPECT_EQ(find("composed"), "1");
  EXPECT_EQ(find("shards_probed"), "3");
}

}  // namespace
}  // namespace tcf
