#ifndef TCF_CORE_TC_TREE_SNAPSHOT_H_
#define TCF_CORE_TC_TREE_SNAPSHOT_H_

#include <optional>
#include <utility>
#include <vector>

#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "core/tcfi_format.h"

namespace tcf {

/// \brief An immutable, queryable index snapshot: either a heap-owned
/// TcTree or a zero-copy MappedTcTree over a TCFI file.
///
/// The serving layer (serve/query_service.h) holds snapshots by
/// shared_ptr and never cares which flavor it got — Query/Compose
/// dispatch to the same templated walk (tc_tree_query.cc), so answers
/// are byte-identical for the same index bytes. The streaming updater
/// (core/tc_tree_update.h) shares the served snapshot as its baseline
/// and replays from either flavor in place, through the same tree views
/// (core/tc_tree_view.h); so one process holds one copy of the index.
/// Only partitioning into shards materializes an owned tree out of a
/// mapped one.
class TcTreeSnapshot {
 public:
  explicit TcTreeSnapshot(TcTree tree) : owned_(std::move(tree)) {}
  explicit TcTreeSnapshot(MappedTcTree mapped) : mapped_(std::move(mapped)) {}

  TcTreeSnapshot(TcTreeSnapshot&&) = default;
  TcTreeSnapshot& operator=(TcTreeSnapshot&&) = default;
  TcTreeSnapshot(const TcTreeSnapshot&) = delete;
  TcTreeSnapshot& operator=(const TcTreeSnapshot&) = delete;

  /// True when queries serve out of mmap'ed arenas.
  bool mapped() const { return mapped_.has_value(); }

  /// The owned tree, or null for a mapped snapshot.
  const TcTree* owned_tree() const {
    return owned_ ? &*owned_ : nullptr;
  }
  /// The mapped tree, or null for an owned snapshot.
  const MappedTcTree* mapped_tree() const {
    return mapped_ ? &*mapped_ : nullptr;
  }

  /// Pattern-bearing nodes (excludes the root).
  size_t num_nodes() const {
    return mapped_ ? mapped_->num_nodes() : owned_->num_nodes();
  }

  CohesionValue MaxAlphaOverNodes() const {
    return mapped_ ? mapped_->MaxAlphaOverNodes()
                   : owned_->MaxAlphaOverNodes();
  }

  /// Resident footprint: heap bytes for an owned tree, mapped file
  /// bytes for a TCFI snapshot (shared page cache, not private heap).
  size_t MemoryBytes() const {
    return mapped_ ? mapped_->FileBytes() : owned_->MemoryBytes();
  }

  /// A heap-owned copy of the index: what partitioning a *shared*
  /// snapshot into shard slices consumes, leaving the snapshot to its
  /// other holders.
  TcTree MaterializeTree() const {
    return mapped_ ? MaterializeTcTree(*mapped_) : TcTree(*owned_);
  }

  /// Consumes the snapshot into an owned tree: moves the owned flavor
  /// out (no copy), materializes the mapped one.
  TcTree TakeTree() && {
    return owned_ ? std::move(*owned_) : MaterializeTcTree(*mapped_);
  }

  /// Algorithm 5 over whichever arena this snapshot holds.
  TcTreeQueryResult Query(const Itemset& q, double alpha_q,
                          const TcTreeQueryOptions& options = {}) const {
    return mapped_ ? QueryTcTree(*mapped_, q, alpha_q, options)
                   : QueryTcTree(*owned_, q, alpha_q, options);
  }

  /// Subset composition over whichever arena this snapshot holds.
  TcTreeQueryResult Compose(const Itemset& q, double alpha_q,
                            const std::vector<SubPatternCover>& covers,
                            const TcTreeQueryOptions& options = {},
                            TcTreeComposeStats* compose_stats =
                                nullptr) const {
    return mapped_ ? ComposeTcTreeQuery(*mapped_, q, alpha_q, covers,
                                        options, compose_stats)
                   : ComposeTcTreeQuery(*owned_, q, alpha_q, covers, options,
                                        compose_stats);
  }

 private:
  std::optional<TcTree> owned_;
  std::optional<MappedTcTree> mapped_;
};

}  // namespace tcf

#endif  // TCF_CORE_TC_TREE_SNAPSHOT_H_
