#ifndef TCF_CORE_TC_TREE_UPDATE_H_
#define TCF_CORE_TC_TREE_UPDATE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/tc_tree.h"
#include "core/tc_tree_snapshot.h"
#include "net/database_network.h"
#include "tx/itemset.h"
#include "util/status.h"

namespace tcf {

/// \file
/// \brief Incremental TC-Tree maintenance (docs/architecture.md,
/// "Incremental maintenance").
///
/// Production database networks churn: check-ins, posts, and citations
/// accrue while the index serves traffic. This module turns a batch of
/// additions into a fresh snapshot *without* re-peeling the whole item
/// lattice: the vertical index pins down the dirty item set, patterns
/// disjoint from it provably answer identically (their theme networks
/// are untouched), and the build BFS is replayed with every clean
/// subtree copied from the live snapshot instead of recomputed. The
/// result is field-for-field identical to `TcTree::Build` on the
/// post-update network — the differential suite in
/// tests/incremental_update_test.cc holds the two byte-to-byte equal —
/// so serving correctness never depends on the incremental path.

/// A batch of additions to a database network: transactions appended to
/// existing vertices and edges joining existing vertices. Updates only
/// add — support never retracts — which is what keeps the dirty-set
/// algebra one-sided (an item active before stays active after).
struct NetworkUpdate {
  struct TxInsert {
    VertexId vertex = 0;
    Itemset items;
  };
  std::vector<TxInsert> transactions;
  std::vector<Edge> edges;

  bool empty() const { return transactions.empty() && edges.empty(); }

  /// Appends `other`'s additions to this batch (queue coalescing).
  void Merge(NetworkUpdate other);
};

/// Checks `update` against `net` without mutating anything: every
/// transaction vertex and edge endpoint must exist, and edges must not
/// be self-loops. The updater validates the *whole* batch before
/// applying any of it, so a rejected batch leaves the network untouched.
Status ValidateUpdate(const DatabaseNetwork& net, const NetworkUpdate& update);

/// The dirty item set of `update`, computed against the *pre-mutation*
/// network (sorted ascending, deduplicated). A pattern whose items all
/// avoid this set keeps its exact theme network — and therefore its
/// truss decomposition — across the update:
///  - a transaction appended at `v` grows the denominator |D_v|, so the
///    frequency of every item active at `v` (and of the new
///    transaction's items) changes: all of them are dirty;
///  - a new edge {u, w} can only enter G_p for a pattern supported at
///    *both* endpoints, so the items active at u *and* at w are dirty
///    (the intersection — a pattern needs all its items on both sides;
///    same-batch transactions at u or w are covered by the rule above).
std::vector<ItemId> ComputeDirtyItems(const DatabaseNetwork& net,
                                      const NetworkUpdate& update);

/// Work counters of one incremental rebuild.
struct TcTreeUpdateStats {
  uint64_t copied = 0;       // decompositions reused from the old tree
  uint64_t recomputed = 0;   // fresh MPTD peels (dirty candidates kept)
  uint64_t clean_candidates = 0;
  uint64_t dirty_candidates = 0;
  bool full_rebuild = false;  // old tree truncated: fell back to Build
  double seconds = 0;
};

/// What UpdateTcTree hands back.
struct TcTreeUpdateResult {
  TcTree tree;
  /// Layer-1 items whose subtrees may differ from the old tree's,
  /// ascending. This is the unit of shard ownership — core/partition.h
  /// routes every pattern to the shard of its minimum item, i.e. its
  /// layer-1 ancestor — so a shard owning none of these items has a
  /// byte-identical slice and can skip its snapshot swap (and keep its
  /// whole cache) during the roll-in.
  std::vector<ItemId> changed_roots;
  TcTreeUpdateStats stats;
};

/// Incrementally rebuilds the index for the *post-mutation* `net`.
///
/// Replays the exact Build BFS — same candidate enumeration, same
/// ordered commit, same `max_depth`/`max_nodes` budget semantics — but a
/// candidate pattern disjoint from `dirty_items` is *copied* from
/// `old_tree` (present there with the same decomposition, or absent and
/// therefore pruned) instead of intersected, induced, and peeled.
/// Because copy and recompute agree on every clean candidate, the
/// committed arena (node ids, child lists, decompositions) is
/// field-for-field identical to `TcTree::Build(net, options)`; only the
/// build *stats* differ — they describe the incremental work actually
/// done.
///
/// `old_tree` must have been built over the pre-mutation network with
/// the same `max_depth`/`max_nodes` options (the IndexUpdater pins
/// them). A truncated `old_tree` cannot prove absence-means-empty, so
/// the call falls back to a full Build and reports every active item as
/// a changed root.
TcTreeUpdateResult UpdateTcTree(const TcTree& old_tree,
                                const DatabaseNetwork& net,
                                const std::vector<ItemId>& dirty_items,
                                const TcTreeOptions& options = {});

/// The same replay over either snapshot flavor. A mapped `old_tree` is
/// read in place (core/tc_tree_view.h): only the decompositions the
/// replay copies are assembled from its records, never the whole tree.
/// TCFI does not store the build's `truncated` bit, so a mapped
/// baseline falls back to a full Build only when it holds at least
/// `max_nodes` nodes — which a truncated build always does.
TcTreeUpdateResult UpdateTcTree(const TcTreeSnapshot& old_tree,
                                const DatabaseNetwork& net,
                                const std::vector<ItemId>& dirty_items,
                                const TcTreeOptions& options = {});

/// Aggregate outcome of one IndexUpdater::Flush (the payload of the
/// wire-level `UPDATED` response).
struct UpdateOutcome {
  size_t batches = 0;        // queued batches folded into this apply
  size_t transactions = 0;
  size_t edges = 0;
  size_t dirty_items = 0;
  size_t changed_roots = 0;
  size_t shards_swapped = 0;  // what the snapshot sink reported
  size_t tree_nodes = 0;      // node count of the new snapshot
  TcTreeUpdateStats stats;
  double apply_ms = 0;
};

/// \brief Serialized streaming updater for a live index.
///
/// Owns the authoritative DatabaseNetwork and shares the snapshot it
/// last installed: its baseline is the one the server serves, not a
/// copy of it.
/// Producers Enqueue() batches from any thread; Flush() drains the
/// queue as one merged batch under a single apply lock — validate,
/// compute the dirty set, mutate the network, incrementally rebuild,
/// then hand the new snapshot (plus the changed-root and dirty-item
/// hints) to the snapshot sink, which rolls it into the serving backend
/// through the epoch-safe swap machinery. Queries keep running on the
/// previous snapshot throughout; nothing here blocks the read path.
///
/// A RELOAD or `--watch` swap does not reach the updater: the next
/// Flush still replays from the updater's own network and the snapshot
/// it last installed, so its result replaces the reloaded index
/// (docs/serve-protocol.md, UPDATE).
class IndexUpdater {
 public:
  /// Receives each freshly built snapshot — the same object the
  /// updater keeps as its next baseline. `changed_roots` bounds the
  /// shards that must swap; `dirty_items` bounds the cache entries that
  /// must drop. Returns the number of shard snapshots actually swapped
  /// (QueryBackend::ApplyUpdatedSnapshot has this exact shape).
  using SnapshotSink = std::function<size_t(
      std::shared_ptr<const TcTreeSnapshot> snapshot,
      const std::vector<ItemId>& changed_roots,
      const std::vector<ItemId>& dirty_items)>;

  /// `net` and `baseline` must agree (the tree built over net with
  /// `build_options`). `baseline` is typically the snapshot a one-shard
  /// QueryService is serving, mapped or owned; the first replay reads
  /// it in place. `sink` may be null for updaters that only maintain
  /// their own snapshot (tests).
  IndexUpdater(DatabaseNetwork net,
               std::shared_ptr<const TcTreeSnapshot> baseline,
               SnapshotSink sink, const TcTreeOptions& build_options = {});
  /// Starts from an owned tree.
  IndexUpdater(DatabaseNetwork net, TcTree tree, SnapshotSink sink,
               const TcTreeOptions& build_options = {});

  IndexUpdater(const IndexUpdater&) = delete;
  IndexUpdater& operator=(const IndexUpdater&) = delete;

  /// Queues a batch without applying it. Thread-safe and cheap.
  void Enqueue(NetworkUpdate update);

  /// Batches currently queued (racy under concurrent Enqueue/Flush —
  /// a scheduling hint, not a synchronization point).
  size_t pending() const;

  /// Drains the queue and applies everything as ONE merged batch: one
  /// validation, one dirty set, one incremental rebuild, one swap.
  /// Returns a zeroed outcome if the queue was empty. A validation
  /// failure rejects the whole batch and mutates nothing.
  StatusOr<UpdateOutcome> Flush();

  /// Enqueue + Flush in one call (the UPDATE verb's synchronous path;
  /// serialized against concurrent Flushes like everything else).
  StatusOr<UpdateOutcome> Apply(NetworkUpdate update);

  /// The authoritative post-update state. Only safe to read while no
  /// Flush/Apply is in flight (tests join their updater threads first).
  const DatabaseNetwork& network() const { return net_; }
  /// The baseline of the next replay: the snapshot last handed to the
  /// sink, or the constructor's until the first non-empty Flush.
  const std::shared_ptr<const TcTreeSnapshot>& snapshot() const {
    return snapshot_;
  }

 private:
  mutable std::mutex queue_mu_;
  std::vector<NetworkUpdate> queue_;

  std::mutex apply_mu_;  // serializes Flush end to end
  DatabaseNetwork net_;
  std::shared_ptr<const TcTreeSnapshot> snapshot_;
  SnapshotSink sink_;
  TcTreeOptions options_;
};

}  // namespace tcf

#endif  // TCF_CORE_TC_TREE_UPDATE_H_
