#ifndef TCF_CORE_TC_TREE_H_
#define TCF_CORE_TC_TREE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "core/decomposition.h"
#include "net/database_network.h"
#include "obs/metrics_registry.h"
#include "tx/itemset.h"

namespace tcf {

/// Build-time configuration for the TC-Tree.
struct TcTreeOptions {
  /// Worker threads for the build. The paper parallelizes only the first
  /// layer (Alg. 4 lines 2-5, 4 OpenMP threads); here *every* layer
  /// expands in parallel — frontier nodes fan out over a self-scheduling
  /// pool, and results commit through a deterministic ordered merge, so
  /// the built tree (arena order, node ids, serialized bytes) is
  /// identical for any thread count.
  size_t num_threads = 1;
  /// Optional cap on tree depth = pattern length (0 = unlimited).
  size_t max_depth = 0;
  /// Optional node budget (0 = unlimited). Dense networks can hold
  /// combinatorially many themes (the paper indexes 152M nodes on
  /// AMINER); when the budget is hit, expansion stops breadth-first and
  /// `TcTreeBuildStats::truncated` is set — already-built nodes stay
  /// exact, only deeper/later patterns are missing.
  size_t max_nodes = 0;
  /// Optional registry for build-side observability: per-wave timing
  /// and frontier-width histograms plus lifetime counters (nodes,
  /// MPTD calls, prunes) are recorded under `tcf_build_*` names. Must
  /// outlive the Build call; null disables exporting (the per-wave
  /// numbers still land in TcTreeBuildStats::waves either way).
  MetricsRegistry* metrics = nullptr;
};

/// One parallel expansion wave of the build (a window of the BFS
/// frontier). `tcf index --verbose` prints these; wide-then-narrowing
/// frontiers with per-wave millisecond costs are the build's shape.
struct TcTreeWaveStats {
  uint32_t depth = 0;           // pattern length of the wave's first entry
  uint32_t frontier_width = 0;  // nodes expanded in this wave
  uint64_t nodes_added = 0;     // children committed from this wave
  double wall_ms = 0;           // expand + commit wall time
};

/// Counters recorded while building (for Table 3 and the ablations).
struct TcTreeBuildStats {
  uint64_t candidates_considered = 0;   // pattern unions attempted
  uint64_t pruned_by_intersection = 0;  // empty Prop.-5.3 overlap
  uint64_t mptd_calls = 0;              // decompositions computed
  double build_seconds = 0.0;
  bool truncated = false;               // node budget exhausted
  /// Per-wave expansion trace (layer 1 is wave 0). Bounded by the wave
  /// count — frontier/max_wave windows — not the node count.
  std::vector<TcTreeWaveStats> waves;
};

/// \brief The Theme-Community Tree (§6.2): a set-enumeration tree over
/// the item set `S` where the node for pattern `p` stores the
/// decomposition `L_p` of `C*_p(0)`, and nodes with empty trusses (and,
/// by Prop. 5.2, their entire subtrees) are omitted.
///
/// Nodes live in one arena (`std::deque`, stable addresses) with integer
/// links; a node stores only its own item — its full pattern is the item
/// trail from the root (Rymon's SE-tree encoding), materialized on demand
/// by `PatternOf`. Children are kept in ascending item (`≺`) order.
class TcTree {
 public:
  using NodeId = uint32_t;
  static constexpr NodeId kRoot = 0;
  static constexpr NodeId kNoParent = static_cast<NodeId>(-1);

  struct Node {
    ItemId item = 0;  // item appended by this node (meaningless at root)
    NodeId parent = kNoParent;
    std::vector<NodeId> children;  // ascending by item
    TrussDecomposition decomposition;  // empty at root
  };

  /// Builds the tree over `net` (Alg. 4): layer 1 decomposes every
  /// single-item theme network (in parallel); node `c = f ∪ {s_b}` is
  /// computed inside `C*_{p_f}(0) ∩ C*_{p_b}(0)` (Prop. 5.3) and pruned —
  /// subtree included — when empty (Prop. 5.2). Deeper layers expand in
  /// parallel too: each layer's frontier fans out over the worker pool
  /// (every frontier node expands against its right-siblings
  /// independently, with per-worker reusable MPTD workspaces), and the
  /// results are committed sequentially in frontier order — per parent,
  /// item-ascending — so node ids, build stats, and `max_nodes` /
  /// `max_depth` budget semantics are byte-for-byte identical to the
  /// single-threaded build for any `num_threads`.
  static TcTree Build(const DatabaseNetwork& net,
                      const TcTreeOptions& options = {});

  /// Reassembles a tree from an explicit node arena (MaterializeTcTree
  /// over a mapped index, PartitionTcTree). `nodes[0]` must be the
  /// root; parent/children links are validated.
  static TcTree FromNodes(std::deque<Node> nodes);

  const Node& node(NodeId id) const { return nodes_[id]; }

  /// Surrenders the node arena (root included, BFS commit order —
  /// parents precede children). The tree is left empty; build stats are
  /// discarded. This is the raw material for core/partition.h, which
  /// re-links subsequences of the arena into per-shard trees.
  std::deque<Node> TakeNodes() && { return std::move(nodes_); }

  /// Number of pattern-bearing nodes (excludes the root), i.e. the count
  /// of non-empty maximal pattern trusses — Table 3's "#Nodes".
  size_t num_nodes() const { return nodes_.size() - 1; }

  /// The pattern of node `id` (item trail from the root).
  Itemset PatternOf(NodeId id) const;

  /// Largest decomposition threshold across all nodes: the global upper
  /// bound of nontrivial query α (QBA sweeps stop here).
  CohesionValue MaxAlphaOverNodes() const;

  /// Depth (pattern length) of the deepest node.
  size_t MaxDepth() const;

  /// Total edges stored across all decompositions.
  uint64_t TotalIndexedEdges() const;

  /// Approximate heap footprint of the index.
  size_t MemoryBytes() const;

  const TcTreeBuildStats& build_stats() const { return stats_; }

 private:
  friend class TcTreeBuilder;
  std::deque<Node> nodes_;
  TcTreeBuildStats stats_;
};

}  // namespace tcf

#endif  // TCF_CORE_TC_TREE_H_
