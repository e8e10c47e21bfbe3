#ifndef TCF_GRAPH_KTRUSS_H_
#define TCF_GRAPH_KTRUSS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace tcf {

/// \brief Cohen's classic k-truss (related work, §2.1), kept as a
/// substrate both for the special-case equivalence of pattern trusses
/// (Def. 3.3: f ≡ 1 and α = k−3 makes a pattern truss a k-truss) and for
/// the equivalence tests against MPTD.

/// Edges of the maximal k-truss of `g`: the maximal subgraph whose every
/// edge is contained in at least k−2 triangles of the subgraph. Requires
/// k >= 2 (k = 2 returns all edges).
std::vector<Edge> KTrussEdges(const Graph& g, uint32_t k);

/// Truss decomposition: for every edge, the largest k such that the edge
/// belongs to the k-truss ("trussness"). Edges outside any triangle get 2.
/// (Not core/decomposition.h's TrussDecomposition, the cohesion-level
/// chain of one pattern truss.)
std::vector<uint32_t> EdgeTrussness(const Graph& g);

/// Exhaustive fixpoint reference for tests: repeatedly delete edges with
/// subgraph-support < k−2 until stable.
std::vector<Edge> KTrussEdgesBruteForce(const Graph& g, uint32_t k);

}  // namespace tcf

#endif  // TCF_GRAPH_KTRUSS_H_
