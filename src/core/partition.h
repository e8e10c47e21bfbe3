#ifndef TCF_CORE_PARTITION_H_
#define TCF_CORE_PARTITION_H_

#include <cstddef>
#include <vector>

#include "core/tc_tree.h"
#include "net/database_network.h"

namespace tcf {

/// \brief Item-space partitioning for sharded serving.
///
/// Every TC-Tree pattern `p` lives in the layer-1 subtree of its minimum
/// item (Rymon SE-tree: the root child on `min(p)` starts `p`'s item
/// trail), so a function from layer-1 items to shards assigns every
/// pattern exactly one owner and the per-shard answer sets of any query
/// are disjoint. Merging them back on (pattern length, lexicographic
/// items) reconstructs the single-tree BFS retrieval order exactly —
/// see PartitionTcTree and serve/query_service.h.
class ShardPartitioner {
 public:
  virtual ~ShardPartitioner() = default;

  /// Shard owning the layer-1 subtree of `item`. Must be < `num_shards`
  /// and deterministic (the serving side and the build-side partitioner
  /// must agree forever).
  virtual size_t ShardOf(ItemId item, size_t num_shards) const = 0;
};

/// Default partitioner: a splitmix64 finalizer over the item id, modulo
/// the shard count. Uniform for any id distribution (dictionary ids are
/// dense and sorted; plain modulo would correlate with item frequency
/// rank in generated datasets).
class HashShardPartitioner : public ShardPartitioner {
 public:
  size_t ShardOf(ItemId item, size_t num_shards) const override;
};

/// Splits one built tree into `num_shards` disjoint trees: node `n`
/// goes to the shard of its layer-1 ancestor's item. Each shard keeps
/// its nodes in the original arena (BFS commit) order with remapped
/// ids, so per-parent child lists stay contiguous and item-ascending
/// and every shard is a valid TcTree on its own (decompositions are
/// moved, not copied). The union of the shards' nodes is exactly the
/// input tree's; a shard that owns nothing is a bare root.
///
/// Because the split happens *after* one ordinary build, every build
/// knob — including the global `max_nodes` budget, whose deterministic
/// commit-order semantics no independent per-shard build can replicate
/// — applies exactly as in the unsharded system. This is the
/// construction path a sharded QueryService uses.
std::vector<TcTree> PartitionTcTree(TcTree tree,
                                    const ShardPartitioner& partitioner,
                                    size_t num_shards);

/// Splits a database network by item ownership: shard `s` keeps the
/// full graph (vertex ids and edges unchanged — theme networks are
/// induced subgraphs, so every shard needs the whole topology) and, for
/// each vertex, its transaction database iff that database mentions at
/// least one item owned by `s` (otherwise an empty TransactionDb holds
/// the vertex id slot). A pattern `p` owned by `s` has `min(p)` owned
/// by `s`, and every vertex of `p`'s theme network carries `min(p)`,
/// so shard `s`'s network induces exactly the same theme networks —
/// hence the same trusses — for every pattern it owns.
std::vector<DatabaseNetwork> PartitionTransactions(
    const DatabaseNetwork& net, const ShardPartitioner& partitioner,
    size_t num_shards);

/// Builds shard `shard`'s tree directly from its partitioned network
/// (`PartitionTransactions(net, ...)[shard]`), without ever
/// materializing the other shards' subtrees in the result.
///
/// The build runs over the shard network unrestricted — owned layer-1
/// nodes need their non-owned right-siblings as Prop.-5.3 intersection
/// partners, so layer 1 cannot simply be filtered — and the non-owned
/// subtrees (approximations computed against thinned foreign
/// databases) are stripped afterwards. With no `max_nodes` budget the
/// result equals `PartitionTcTree(full_build)[shard]` node-for-node
/// (property-tested byte-identical in tests/shard_router_test.cc); a
/// budget spends differently here than in one global build, so capped
/// sharded serving should split a capped full build instead.
TcTree BuildShardTree(const DatabaseNetwork& shard_net,
                      const ShardPartitioner& partitioner, size_t num_shards,
                      size_t shard, const TcTreeOptions& options = {});

}  // namespace tcf

#endif  // TCF_CORE_PARTITION_H_
