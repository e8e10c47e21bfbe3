#include "graph/ktruss.h"

#include <algorithm>
#include <queue>

#include "graph/triangles.h"

namespace tcf {

std::vector<Edge> KTrussEdges(const Graph& g, uint32_t k) {
  const uint32_t need = k >= 2 ? k - 2 : 0;
  std::vector<uint32_t> support = CountEdgeTriangles(g);
  std::vector<uint8_t> alive(g.num_edges(), 1);

  std::queue<EdgeId> q;
  std::vector<uint8_t> queued(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (support[e] < need) {
      q.push(e);
      queued[e] = 1;
    }
  }
  while (!q.empty()) {
    EdgeId e = q.front();
    q.pop();
    if (!alive[e]) continue;
    alive[e] = 0;
    ForEachTriangle(g, e, &alive, [&](VertexId, EdgeId e1, EdgeId e2) {
      for (EdgeId wing : {e1, e2}) {
        if (support[wing] > 0) --support[wing];
        if (alive[wing] && !queued[wing] && support[wing] < need) {
          q.push(wing);
          queued[wing] = 1;
        }
      }
    });
  }

  std::vector<Edge> out;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (alive[e]) out.push_back(g.edge(e));
  }
  return out;
}

std::vector<uint32_t> EdgeTrussness(const Graph& g) {
  std::vector<uint32_t> support = CountEdgeTriangles(g);
  std::vector<uint8_t> alive(g.num_edges(), 1);
  std::vector<uint32_t> trussness(g.num_edges(), 2);

  // Peel in ascending support order. Bucket queue over support values.
  const size_t m = g.num_edges();
  std::vector<std::vector<EdgeId>> bucket;
  auto push_bucket = [&](EdgeId e) {
    const uint32_t s = support[e];
    if (bucket.size() <= s) bucket.resize(s + 1);
    bucket[s].push_back(e);
  };
  for (EdgeId e = 0; e < m; ++e) push_bucket(e);

  uint32_t k = 2;
  size_t remaining = m;
  uint32_t level = 0;  // current minimum support scanned
  while (remaining > 0) {
    while (level < bucket.size() && bucket[level].empty()) ++level;
    if (level >= bucket.size()) break;
    EdgeId e = bucket[level].back();
    bucket[level].pop_back();
    if (!alive[e] || support[e] != level) continue;  // stale entry
    k = std::max(k, level + 2);
    trussness[e] = k;
    alive[e] = 0;
    --remaining;
    ForEachTriangle(g, e, &alive, [&](VertexId, EdgeId e1, EdgeId e2) {
      for (EdgeId wing : {e1, e2}) {
        if (support[wing] > 0) {
          --support[wing];
          push_bucket(wing);
          if (support[wing] < level) level = support[wing];
        }
      }
    });
  }
  return trussness;
}

std::vector<Edge> KTrussEdgesBruteForce(const Graph& g, uint32_t k) {
  const uint32_t need = k >= 2 ? k - 2 : 0;
  std::vector<uint8_t> alive(g.num_edges(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!alive[e]) continue;
      uint32_t s = 0;
      ForEachTriangle(g, e, &alive, [&](VertexId, EdgeId, EdgeId) { ++s; });
      if (s < need) {
        alive[e] = 0;
        changed = true;
      }
    }
  }
  std::vector<Edge> out;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (alive[e]) out.push_back(g.edge(e));
  }
  return out;
}

}  // namespace tcf
