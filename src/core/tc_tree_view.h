#ifndef TCF_CORE_TC_TREE_VIEW_H_
#define TCF_CORE_TC_TREE_VIEW_H_

#include <cstddef>
#include <vector>

#include "core/decomposition.h"
#include "core/pattern_truss.h"
#include "core/tc_tree.h"
#include "core/tcfi_format.h"

namespace tcf {

/// \file
/// \brief Read-only views over the two TC-Tree arenas.
///
/// The query walks (core/tc_tree_query.cc) and the incremental replay
/// (core/tc_tree_update.cc) are templated over a *tree view*, so the
/// owned (TcTree) and mapped (MappedTcTree, core/tcfi_format.h)
/// snapshots run the exact same code — same visit order, same counters,
/// same results — for the same index bytes. The views adapt only the
/// arena access: vector members on one side, mapped CSR slices on the
/// other. Node ids agree between the two (0 is the root, BFS commit
/// order).

struct OwnedTreeView {
  const TcTree& t;
  using NodeId = TcTree::NodeId;

  size_t num_nodes() const { return t.num_nodes(); }
  size_t num_children(NodeId id) const { return t.node(id).children.size(); }
  NodeId child(NodeId id, size_t k) const { return t.node(id).children[k]; }
  ItemId item(NodeId id) const { return t.node(id).item; }
  CohesionValue max_alpha(NodeId id) const {
    return t.node(id).decomposition.max_alpha();
  }
  std::vector<Edge> EdgesAtAlphaQ(NodeId id, CohesionValue aq) const {
    return t.node(id).decomposition.EdgesAtAlphaQ(aq);
  }
  Itemset PatternOf(NodeId id) const { return t.PatternOf(id); }
  void FillVertices(NodeId id, PatternTruss* truss) const {
    const TrussDecomposition& d = t.node(id).decomposition;
    FillVerticesFromEdges(d.vertices(), d.frequencies(), truss);
  }
  /// A copy of the node's decomposition.
  TrussDecomposition Decomposition(NodeId id) const {
    return t.node(id).decomposition;
  }
};

struct MappedTreeView {
  const MappedTcTree& t;
  using NodeId = MappedTcTree::NodeId;

  size_t num_nodes() const { return t.num_nodes(); }
  size_t num_children(NodeId id) const { return t.num_children(id); }
  NodeId child(NodeId id, size_t k) const { return t.children(id)[k]; }
  ItemId item(NodeId id) const { return t.item(id); }
  CohesionValue max_alpha(NodeId id) const { return t.node_max_alpha(id); }
  std::vector<Edge> EdgesAtAlphaQ(NodeId id, CohesionValue aq) const {
    return t.EdgesAtAlphaQ(id, aq);
  }
  Itemset PatternOf(NodeId id) const { return t.PatternOf(id); }
  void FillVertices(NodeId id, PatternTruss* truss) const {
    FillVerticesFromEdges(t.vertices(id), t.frequencies(id),
                          t.num_vertices(id), truss);
  }
  /// The node's decomposition, assembled from its mapped records.
  TrussDecomposition Decomposition(NodeId id) const {
    return t.Decomposition(id);
  }
};

}  // namespace tcf

#endif  // TCF_CORE_TC_TREE_VIEW_H_
