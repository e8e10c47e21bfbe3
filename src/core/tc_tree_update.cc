#include "core/tc_tree_update.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "core/mptd.h"
#include "core/pattern_truss.h"
#include "core/tc_tree_view.h"
#include "net/theme_network.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tcf {

/// Friend key into TcTree's private arena (tc_tree.h grants
/// `friend class TcTreeBuilder`). The incremental replay appends nodes
/// and writes stats exactly the way TcTree::Build does, so everything
/// downstream — persistence, partitioning, queries — sees an ordinary
/// built tree.
class TcTreeBuilder {
 public:
  static std::deque<TcTree::Node>& Nodes(TcTree& tree) { return tree.nodes_; }
  static TcTreeBuildStats& Stats(TcTree& tree) { return tree.stats_; }
};

namespace {

using NodeId = TcTree::NodeId;

/// BFS frontier entry of the incremental replay. On top of Build's
/// {id, depth, sibling_pos} it carries the lockstep cursor into the old
/// tree (`old_id`), the layer-1 ancestor item (`root`, the shard routing
/// key), and whether the node's pattern is disjoint from the dirty set
/// (`clean` — in which case `old_id` is valid and the subtrees agree
/// until a dirty sibling item enters a candidate union).
struct UFrontierEntry {
  NodeId id;
  NodeId old_id;  // matching node in the old tree; kNoParent when dirty
  ItemId root;
  uint32_t depth;
  uint32_t sibling_pos;
  bool clean;
};

struct UChildResult {
  ItemId item;
  TrussDecomposition decomposition;
  NodeId old_id;  // old-tree counterpart when copied, else kNoParent
  bool clean;
};

/// What one frontier node's expansion produced. Mirrors Build's
/// Expansion so the sequential commit can fold stats and trip the node
/// budget at exactly the point the from-scratch build would.
struct UExpansion {
  std::vector<UChildResult> children;  // sibling order = item-ascending
  uint64_t candidates = 0;             // dirty candidates attempted
  uint64_t pruned = 0;
  uint64_t mptd_calls = 0;
  uint64_t clean_candidates = 0;
  uint64_t copied = 0;
  bool touched_dirty = false;  // any dirty candidate under this entry
};

/// Same per-worker buffers as Build's (its BuildWorkspace lives in an
/// anonymous namespace, so it is re-stated here).
struct BuildWorkspace {
  ThemePeeler peeler;
  std::vector<Edge> overlap;
  ThemeNetwork tn;
  ThemeInductionScratch induction;
};

BuildWorkspace& WorkspaceForThisWorker(std::vector<BuildWorkspace>& all) {
  const size_t idx = ThreadPool::CurrentWorkerIndex();
  TCF_CHECK(idx < all.size());
  return all[idx];
}

/// The child of `parent` (in `old_tree`) carrying `item`, or kNoParent.
/// Child lists are item-ascending, so the scan can stop early.
template <typename View>
NodeId FindOldChild(const View& old_tree, NodeId parent, ItemId item) {
  const size_t fanout = old_tree.num_children(parent);
  for (size_t k = 0; k < fanout; ++k) {
    const NodeId c = old_tree.child(parent, k);
    const ItemId ci = old_tree.item(c);
    if (ci == item) return c;
    if (ci > item) break;
  }
  return TcTree::kNoParent;
}

}  // namespace

void NetworkUpdate::Merge(NetworkUpdate other) {
  transactions.insert(transactions.end(),
                      std::make_move_iterator(other.transactions.begin()),
                      std::make_move_iterator(other.transactions.end()));
  edges.insert(edges.end(), other.edges.begin(), other.edges.end());
}

Status ValidateUpdate(const DatabaseNetwork& net, const NetworkUpdate& update) {
  const size_t n = net.num_vertices();
  const size_t num_items = net.num_items();
  for (const NetworkUpdate::TxInsert& tx : update.transactions) {
    if (tx.vertex >= n) {
      return Status::InvalidArgument(
          StrFormat("update transaction at vertex %u, but the network has "
                    "%zu vertices",
                    tx.vertex, n));
    }
    if (tx.items.empty()) {
      return Status::InvalidArgument(
          StrFormat("update transaction at vertex %u has no items", tx.vertex));
    }
    for (ItemId item : tx.items.items()) {
      if (item >= num_items) {
        return Status::InvalidArgument(
            StrFormat("update transaction item %u outside the dictionary "
                      "(%zu items)",
                      item, num_items));
      }
    }
  }
  for (const Edge& e : update.edges) {
    if (e.u >= n || e.v >= n) {
      return Status::InvalidArgument(
          StrFormat("update edge {%u, %u} leaves the vertex range [0, %zu)",
                    e.u, e.v, n));
    }
    if (e.u == e.v) {
      return Status::InvalidArgument(
          StrFormat("update edge {%u, %u} is a self-loop", e.u, e.u));
    }
  }
  return Status::OK();
}

std::vector<ItemId> ComputeDirtyItems(const DatabaseNetwork& net,
                                      const NetworkUpdate& update) {
  std::vector<ItemId> dirty;
  for (const NetworkUpdate::TxInsert& tx : update.transactions) {
    // The appended transaction grows |D_v|: every item active at the
    // vertex before the update changes frequency, and the new items
    // gain support.
    const std::vector<ItemId>& active = net.vertical(tx.vertex).items();
    dirty.insert(dirty.end(), active.begin(), active.end());
    dirty.insert(dirty.end(), tx.items.items().begin(),
                 tx.items.items().end());
  }
  for (const Edge& e : update.edges) {
    // The edge can only join a theme network G_p when p is supported at
    // *both* endpoints, so only items active on both sides are dirtied
    // by it. (An item activated at an endpoint by a same-batch
    // transaction is already dirty through the rule above.)
    const std::vector<ItemId>& a = net.vertical(e.u).items();
    const std::vector<ItemId>& b = net.vertical(e.v).items();
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(dirty));
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

namespace {

/// UpdateTcTree over either arena (core/tc_tree_view.h). `old_truncated`
/// is the old build's `truncated` bit where it survived (an owned tree's
/// build stats); a mapped baseline passes false.
template <typename View>
TcTreeUpdateResult UpdateFrom(const View& old_tree, bool old_truncated,
                              const DatabaseNetwork& net,
                              const std::vector<ItemId>& dirty_items,
                              const TcTreeOptions& options) {
  WallTimer timer;
  TcTreeUpdateResult result;

  // A truncated old tree cannot serve as the copy oracle: a clean
  // candidate absent from it might have been cut by the budget rather
  // than peeled empty, and "absent means prune" would wrongly drop a
  // live subtree. (The node-count test also catches trees loaded from
  // disk, whose build stats did not survive serialization.)
  const bool old_unusable =
      old_truncated ||
      (options.max_nodes != 0 && old_tree.num_nodes() >= options.max_nodes);
  if (old_unusable) {
    result.tree = TcTree::Build(net, options);
    result.changed_roots = net.ActiveItems();
    result.stats.full_rebuild = true;
    result.stats.recomputed = result.tree.build_stats().mptd_calls;
    result.stats.seconds = timer.Seconds();
    return result;
  }

  std::vector<char> dirty_mask(
      dirty_items.empty() ? 0 : dirty_items.back() + 1, 0);
  for (ItemId i : dirty_items) dirty_mask[i] = 1;
  auto dirty = [&](ItemId i) {
    return i < dirty_mask.size() && dirty_mask[i] != 0;
  };

  TcTree& tree = result.tree;
  std::deque<TcTree::Node>& nodes = TcTreeBuilder::Nodes(tree);
  TcTreeBuildStats& stats = TcTreeBuilder::Stats(tree);
  TcTreeUpdateStats& ustats = result.stats;
  nodes.emplace_back();  // root: pattern ∅, empty decomposition

  ThreadPool pool(options.num_threads);
  std::vector<BuildWorkspace> workspaces(pool.num_threads());

  // Updates only add support, so the post-update active set contains
  // the pre-update one — and a *clean* active item was already active
  // before (an item newly activated by a transaction is dirty by
  // construction). Every clean layer-1 candidate was therefore
  // considered by the old build with an identical singleton theme
  // network: present in the old tree means same decomposition, absent
  // means it peeled empty. Dirty items are recomputed from scratch and
  // their roots marked changed whatever the outcome (the subtree may
  // have vanished).
  const std::vector<ItemId> items = net.ActiveItems();
  std::vector<char> root_changed(items.empty() ? 0 : items.back() + 1, 0);

  struct Layer1Result {
    std::optional<TrussDecomposition> d;
    NodeId old_id = TcTree::kNoParent;
    bool clean = false;
  };
  std::vector<Layer1Result> layer1(items.size());
  WallTimer wave_timer;  // layer 1 is wave 0, as in Build
  ParallelForDynamic(pool, items.size(), [&](size_t i) {
    const ItemId item = items[i];
    Layer1Result& r = layer1[i];
    if (!dirty(item)) {
      r.clean = true;
      const NodeId oc = FindOldChild(old_tree, TcTree::kRoot, item);
      if (oc != TcTree::kNoParent) {
        r.old_id = oc;
        r.d = old_tree.Decomposition(oc);
      }
      return;
    }
    BuildWorkspace& ws = WorkspaceForThisWorker(workspaces);
    ThemeNetwork tn = InduceThemeNetwork(net, Itemset::Single(item));
    if (tn.empty()) return;
    TrussDecomposition d = TrussDecomposition::FromThemeNetwork(tn, &ws.peeler);
    if (!d.empty()) r.d = std::move(d);
  });

  std::vector<UFrontierEntry> frontier;
  for (size_t i = 0; i < items.size(); ++i) {
    Layer1Result& r = layer1[i];
    if (r.clean) {
      ++ustats.clean_candidates;
      if (r.d.has_value()) ++ustats.copied;
    } else {
      ++ustats.dirty_candidates;
      ++stats.candidates_considered;
      ++stats.mptd_calls;
      ++ustats.recomputed;
      root_changed[items[i]] = 1;
    }
    if (!r.d.has_value()) continue;
    TcTree::Node n;
    n.item = items[i];
    n.parent = TcTree::kRoot;
    n.decomposition = std::move(*r.d);
    nodes.push_back(std::move(n));
    const NodeId id = static_cast<NodeId>(nodes.size() - 1);
    const uint32_t pos =
        static_cast<uint32_t>(nodes[TcTree::kRoot].children.size());
    nodes[TcTree::kRoot].children.push_back(id);
    frontier.push_back({id, r.old_id, items[i], 1, pos, r.clean});
  }
  stats.waves.push_back({/*depth=*/0, static_cast<uint32_t>(items.size()),
                         static_cast<uint64_t>(frontier.size()),
                         wave_timer.Millis()});

  // Deeper layers: the exact Build BFS — same wave windows, same
  // candidate enumeration, same ordered commit, same budget and depth
  // semantics — except that a candidate whose pattern avoids the dirty
  // set resolves by lockstep lookup in the old tree instead of
  // intersect + induce + peel. A clean candidate's sibling is clean too
  // (its pattern is a subset of the candidate's), so both cursors into
  // the old tree exist and the old build evaluated this exact candidate
  // with identical inputs: copying its recorded outcome is the same as
  // recomputing it.
  const size_t max_wave = pool.num_threads() * 32;
  size_t head = 0;
  std::vector<UExpansion> wave;
  auto trip_budget = [&] {
    stats.truncated = true;
    TCF_LOG(Warn) << "TC-Tree node budget (" << options.max_nodes
                  << ") exhausted; deeper themes are not indexed";
  };
  bool budget_exhausted = false;
  while (head < frontier.size() && !budget_exhausted) {
    if (options.max_nodes != 0 && tree.num_nodes() >= options.max_nodes) {
      trip_budget();
      break;
    }
    const size_t wave_begin = head;
    const size_t wave_end = std::min(frontier.size(), head + max_wave);
    wave.clear();
    wave.resize(wave_end - wave_begin);
    wave_timer.Reset();
    const size_t nodes_before_wave = nodes.size();

    ParallelForDynamic(pool, wave_end - wave_begin, [&](size_t w) {
      const UFrontierEntry entry = frontier[wave_begin + w];
      if (options.max_depth != 0 && entry.depth >= options.max_depth) {
        return;
      }
      BuildWorkspace& ws = WorkspaceForThisWorker(workspaces);
      UExpansion& ex = wave[w];
      const NodeId f = entry.id;
      const TcTree::Node& node_f = nodes[f];
      const std::vector<NodeId>& siblings = nodes[node_f.parent].children;
      const Itemset pattern_f = tree.PatternOf(f);

      for (size_t s = entry.sibling_pos + 1; s < siblings.size(); ++s) {
        const NodeId b = siblings[s];
        const ItemId item_b = nodes[b].item;

        if (entry.clean && !dirty(item_b)) {
          ++ex.clean_candidates;
          const NodeId oc = FindOldChild(old_tree, entry.old_id, item_b);
          if (oc == TcTree::kNoParent) continue;  // old build pruned it
          ex.children.push_back({item_b, old_tree.Decomposition(oc), oc, true});
          ++ex.copied;
          continue;
        }

        ex.touched_dirty = true;
        ++ex.candidates;
        IntersectEdgeSetsInto(node_f.decomposition.sorted_edges(),
                              nodes[b].decomposition.sorted_edges(),
                              &ws.overlap);
        if (ws.overlap.empty()) {
          ++ex.pruned;
          continue;
        }
        const Itemset pc = pattern_f.Union(item_b);
        InduceThemeNetworkFromEdgesInto(net, pc, ws.overlap, &ws.tn,
                                        &ws.induction);
        if (ws.tn.empty()) {
          ++ex.pruned;
          continue;
        }
        ++ex.mptd_calls;
        TrussDecomposition d =
            TrussDecomposition::FromThemeNetwork(ws.tn, &ws.peeler);
        if (d.empty()) continue;  // Prop. 5.2 prunes the whole subtree
        ex.children.push_back({item_b, std::move(d), TcTree::kNoParent, false});
      }
    });

    // Ordered commit, replicating Build's: per frontier entry, per
    // parent, item-ascending — so node ids and the budget-trip point
    // match the from-scratch build for any thread count.
    for (size_t w = 0; w < wave.size(); ++w) {
      if (options.max_nodes != 0 && tree.num_nodes() >= options.max_nodes) {
        trip_budget();
        budget_exhausted = true;
        break;
      }
      const UFrontierEntry entry = frontier[wave_begin + w];
      if (options.max_depth != 0 && entry.depth >= options.max_depth) {
        continue;
      }
      UExpansion& ex = wave[w];
      stats.candidates_considered += ex.candidates;
      stats.pruned_by_intersection += ex.pruned;
      stats.mptd_calls += ex.mptd_calls;
      ustats.clean_candidates += ex.clean_candidates;
      ustats.dirty_candidates += ex.candidates;
      ustats.copied += ex.copied;
      ustats.recomputed += ex.mptd_calls;
      if (ex.touched_dirty) root_changed[entry.root] = 1;
      for (UChildResult& child : ex.children) {
        TcTree::Node n;
        n.item = child.item;
        n.parent = entry.id;
        n.decomposition = std::move(child.decomposition);
        nodes.push_back(std::move(n));
        const NodeId id = static_cast<NodeId>(nodes.size() - 1);
        const uint32_t pos =
            static_cast<uint32_t>(nodes[entry.id].children.size());
        nodes[entry.id].children.push_back(id);
        frontier.push_back({id, child.old_id, entry.root, entry.depth + 1, pos,
                            child.clean});
      }
    }
    stats.waves.push_back({frontier[wave_begin].depth,
                           static_cast<uint32_t>(wave_end - wave_begin),
                           static_cast<uint64_t>(nodes.size() -
                                                 nodes_before_wave),
                           wave_timer.Millis()});
    head = wave_end;
  }

  if (stats.truncated) {
    // The replay outgrew the budget the old build fit under. The new
    // tree is still byte-identical to Build(post-update net), but the
    // truncation frontier can cut through *clean* subtrees, so the
    // changed set must widen to everything.
    result.changed_roots = items;
  } else {
    for (ItemId item : items) {
      if (root_changed[item]) result.changed_roots.push_back(item);
    }
  }

  stats.build_seconds = timer.Seconds();
  ustats.seconds = stats.build_seconds;
  return result;
}

}  // namespace

TcTreeUpdateResult UpdateTcTree(const TcTree& old_tree,
                                const DatabaseNetwork& net,
                                const std::vector<ItemId>& dirty_items,
                                const TcTreeOptions& options) {
  return UpdateFrom(OwnedTreeView{old_tree}, old_tree.build_stats().truncated,
                    net, dirty_items, options);
}

TcTreeUpdateResult UpdateTcTree(const TcTreeSnapshot& old_tree,
                                const DatabaseNetwork& net,
                                const std::vector<ItemId>& dirty_items,
                                const TcTreeOptions& options) {
  if (const MappedTcTree* mapped = old_tree.mapped_tree()) {
    // TCFI does not store the `truncated` bit: a mapped baseline falls
    // back to a full rebuild only through the node-count test.
    return UpdateFrom(MappedTreeView{*mapped}, /*old_truncated=*/false, net,
                      dirty_items, options);
  }
  return UpdateTcTree(*old_tree.owned_tree(), net, dirty_items, options);
}

IndexUpdater::IndexUpdater(DatabaseNetwork net,
                           std::shared_ptr<const TcTreeSnapshot> baseline,
                           SnapshotSink sink,
                           const TcTreeOptions& build_options)
    : net_(std::move(net)),
      snapshot_(std::move(baseline)),
      sink_(std::move(sink)),
      options_(build_options) {}

IndexUpdater::IndexUpdater(DatabaseNetwork net, TcTree tree, SnapshotSink sink,
                           const TcTreeOptions& build_options)
    : IndexUpdater(std::move(net),
                   std::make_shared<const TcTreeSnapshot>(std::move(tree)),
                   std::move(sink), build_options) {}

void IndexUpdater::Enqueue(NetworkUpdate update) {
  if (update.empty()) return;
  std::lock_guard<std::mutex> lock(queue_mu_);
  queue_.push_back(std::move(update));
}

size_t IndexUpdater::pending() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

StatusOr<UpdateOutcome> IndexUpdater::Flush() {
  std::lock_guard<std::mutex> apply_lock(apply_mu_);
  NetworkUpdate batch;
  UpdateOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    outcome.batches = queue_.size();
    for (NetworkUpdate& u : queue_) batch.Merge(std::move(u));
    queue_.clear();
  }
  if (batch.empty()) {
    outcome.tree_nodes = snapshot_->num_nodes();
    return outcome;
  }
  WallTimer timer;

  // Validate the whole merged batch before mutating anything: a bad
  // line rejects the batch and leaves network, tree, and serving state
  // exactly as they were.
  Status valid = ValidateUpdate(net_, batch);
  if (!valid.ok()) return valid;

  const std::vector<ItemId> dirty = ComputeDirtyItems(net_, batch);
  outcome.transactions = batch.transactions.size();
  outcome.edges = batch.edges.size();
  for (NetworkUpdate::TxInsert& tx : batch.transactions) {
    TCF_CHECK(net_.AddTransaction(tx.vertex, std::move(tx.items)).ok());
  }
  for (const Edge& e : batch.edges) {
    TCF_CHECK(net_.AddEdge(e.u, e.v).ok());
  }

  TcTreeUpdateResult result = UpdateTcTree(*snapshot_, net_, dirty, options_);
  outcome.dirty_items = dirty.size();
  outcome.changed_roots = result.changed_roots.size();
  outcome.tree_nodes = result.tree.num_nodes();
  outcome.stats = result.stats;
  // One tree, shared with the sink: the backend serves the very object
  // the next replay reads as its baseline.
  auto fresh = std::make_shared<const TcTreeSnapshot>(std::move(result.tree));
  if (sink_) {
    outcome.shards_swapped = sink_(fresh, result.changed_roots, dirty);
  }
  snapshot_ = std::move(fresh);
  outcome.apply_ms = timer.Millis();
  return outcome;
}

StatusOr<UpdateOutcome> IndexUpdater::Apply(NetworkUpdate update) {
  Enqueue(std::move(update));
  return Flush();
}

}  // namespace tcf
