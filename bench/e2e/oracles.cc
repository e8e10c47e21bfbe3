#include "oracles.h"

#include <algorithm>

#include "core/decomposition.h"
#include "core/tc_tree_query.h"
#include "net/theme_network.h"
#include "serve/line_protocol.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace tcf::e2e {
namespace {

template <class Tree>
std::vector<std::string> Render(const Tree& tree,
                                const ItemDictionary& dictionary,
                                const ServeQuery& query) {
  const TcTreeQueryResult result =
      QueryTcTree(tree, query.items, query.alpha);
  std::vector<std::string> lines;
  lines.reserve(result.trusses.size());
  for (const PatternTruss& truss : result.trusses) {
    lines.push_back(EncodeTruss(dictionary, truss));
  }
  return lines;
}

std::vector<Edge> Sorted(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end());
  return edges;
}

}  // namespace

std::vector<std::string> ExpectedPayload(const MappedTcTree& tree,
                                         const ItemDictionary& dictionary,
                                         const ServeQuery& query) {
  return Render(tree, dictionary, query);
}

std::vector<std::string> ExpectedPayload(const TcTree& tree,
                                         const ItemDictionary& dictionary,
                                         const ServeQuery& query) {
  return Render(tree, dictionary, query);
}

OracleReport CheckWireAnswers(
    Client& client, const std::vector<std::string>& lines,
    const std::vector<std::vector<std::string>>& expected) {
  OracleReport report;
  Request request;
  request.kind = Request::Kind::kQuery;
  for (size_t i = 0; i < lines.size(); ++i) {
    ++report.checked;
    request.query_line = lines[i];
    auto reply = client.RoundTrip(request);
    if (!reply.ok()) {
      report.Fail("'" + lines[i] + "': " + reply.status().ToString());
      break;  // the connection is gone
    }
    if (!reply->header.ok || reply->header.kind != "TRUSSES") {
      report.Fail("'" + lines[i] + "': " + reply->header.ToStatus().ToString());
    } else if (reply->payload != expected[i]) {
      report.Fail(StrFormat("'%s': payload differs (%zu trusses on the "
                            "wire, %zu expected)",
                            lines[i].c_str(), reply->payload.size(),
                            expected[i].size()));
    }
  }
  return report;
}

OracleReport CheckIndex(const MappedTcTree& index, const DatabaseNetwork& net,
                        uint64_t expect_nodes, uint64_t expect_edges,
                        size_t samples, uint64_t seed) {
  OracleReport report;
  ++report.checked;
  if (index.num_nodes() != expect_nodes ||
      index.TotalIndexedEdges() != expect_edges) {
    report.Fail(StrFormat(
        "index has %zu nodes and %llu edges, the dataset %llu and %llu",
        index.num_nodes(),
        static_cast<unsigned long long>(index.TotalIndexedEdges()),
        static_cast<unsigned long long>(expect_nodes),
        static_cast<unsigned long long>(expect_edges)));
    return report;
  }
  Rng rng(seed);
  for (size_t s = 0; s < samples && index.num_nodes() > 0; ++s) {
    ++report.checked;
    const auto id = static_cast<MappedTcTree::NodeId>(
        1 + rng.NextUint64(index.num_nodes()));
    const Itemset pattern = index.PatternOf(id);
    const TrussDecomposition fresh =
        TrussDecomposition::FromThemeNetwork(InduceThemeNetwork(net, pattern));
    const std::string where =
        StrFormat("node %u (%s)", id, net.dictionary().Render(pattern).c_str());
    if (fresh.levels().size() != index.num_levels(id)) {
      report.Fail(StrFormat("%s: %zu levels recomputed, %zu indexed",
                            where.c_str(), fresh.levels().size(),
                            index.num_levels(id)));
      continue;
    }
    for (size_t k = 0; k < fresh.levels().size(); ++k) {
      const TcfiLevelRec& level = index.levels(id)[k];
      const Edge* edges = index.level_edges(level);
      if (fresh.levels()[k].alpha != level.alpha ||
          Sorted(fresh.levels()[k].removed) !=
              Sorted({edges, edges + level.edges_count})) {
        report.Fail(StrFormat("%s: level %zu differs", where.c_str(), k));
        break;
      }
    }
    const VertexId* vertices = index.vertices(id);
    if (!std::equal(fresh.vertices().begin(), fresh.vertices().end(),
                    vertices, vertices + index.num_vertices(id))) {
      report.Fail(where + ": vertex set differs");
    }
  }
  return report;
}

void ApplyUpdates(const std::vector<NetworkUpdate>& updates,
                  DatabaseNetwork* net) {
  for (const NetworkUpdate& u : updates) {
    for (const NetworkUpdate::TxInsert& tx : u.transactions) {
      TCF_CHECK(net->AddTransaction(tx.vertex, tx.items).ok());
    }
    for (const Edge& e : u.edges) TCF_CHECK(net->AddEdge(e.u, e.v).ok());
  }
}

uint64_t PayloadHash(const std::vector<std::string>& payload) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& line : payload) {
    for (const char c : line) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    h = (h ^ '\n') * 0x100000001b3ull;
  }
  return h;
}

}  // namespace tcf::e2e
