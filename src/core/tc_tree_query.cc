#include "core/tc_tree_query.h"

#include <deque>
#include <unordered_map>
#include <utility>

#include "core/tc_tree_view.h"

namespace tcf {

namespace {

// The walks below are templated over a tree view (core/tc_tree_view.h),
// so owned and mapped snapshots give byte-identical answers.

template <typename View>
TcTreeQueryResult QueryWalk(const View& tree, const Itemset& q,
                            double alpha_q,
                            const TcTreeQueryOptions& options) {
  TcTreeQueryResult result;
  const CohesionValue aq = QuantizeAlpha(alpha_q);

  // Cooperative cancellation: a bounded deadline is re-checked every
  // kDeadlineCheckStride visited nodes (and once up front, so an
  // already-expired budget never starts the walk).
  const bool bounded = options.deadline.bounded();
  if (bounded && options.deadline.IsExpired()) {
    result.deadline_exceeded = true;
    return result;
  }

  std::deque<TcTree::NodeId> queue;
  queue.push_back(TcTree::kRoot);
  while (!queue.empty()) {
    if (options.max_results != 0 &&
        result.retrieved_nodes >= options.max_results) {
      break;
    }
    const TcTree::NodeId f = queue.front();
    queue.pop_front();
    const size_t fanout = tree.num_children(f);
    for (size_t k = 0; k < fanout; ++k) {
      const TcTree::NodeId c = tree.child(f, k);
      if (!q.Contains(tree.item(c))) continue;  // subtree can't be ⊆ q
      ++result.visited_nodes;
      if (bounded && result.visited_nodes % kDeadlineCheckStride == 0 &&
          options.deadline.IsExpired()) {
        result.deadline_exceeded = true;
        return result;
      }
      if (tree.max_alpha(c) <= aq) {  // empty at α_q
        ++result.pruned_subtrees;
        continue;
      }
      PatternTruss truss;
      truss.pattern = tree.PatternOf(c);
      truss.edges = tree.EdgesAtAlphaQ(c, aq);
      if (truss.edges.empty()) {
        ++result.pruned_subtrees;
        continue;
      }
      // Non-empty: keep descending (Prop. 5.2) even when the size filter
      // drops this truss from the result list.
      queue.push_back(c);
      if (truss.edges.size() < options.min_truss_edges) continue;
      if (options.max_results != 0 &&
          result.retrieved_nodes >= options.max_results) {
        continue;
      }
      if (options.materialize_vertices) {
        tree.FillVertices(c, &truss);
      }
      result.trusses.push_back(std::move(truss));
      ++result.retrieved_nodes;
    }
  }
  return result;
}

template <typename View>
TcTreeQueryResult ComposeWalk(const View& tree, const Itemset& q,
                              double alpha_q,
                              const std::vector<SubPatternCover>& covers,
                              const TcTreeQueryOptions& options,
                              TcTreeComposeStats* compose_stats) {
  if (covers.empty() || covers.size() > 64 || options.min_truss_edges != 0 ||
      options.max_results != 0) {
    return QueryWalk(tree, q, alpha_q, options);
  }
  const CohesionValue aq = QuantizeAlpha(alpha_q);

  // item → bitmask of covers containing it; the pattern of a node is ⊆
  // cover j iff every item on its root trail keeps bit j alive.
  std::unordered_map<ItemId, uint64_t> item_masks;
  // pattern → its truss inside some cover. Two covers both containing p
  // hold identical trusses (same tree, same α_q), so first-in wins.
  std::unordered_map<Itemset, const PatternTruss*, ItemsetHash> reusable;
  for (size_t j = 0; j < covers.size(); ++j) {
    for (ItemId item : *covers[j].itemset) {
      item_masks[item] |= uint64_t{1} << j;
    }
    for (const PatternTruss& t : covers[j].result->trusses) {
      reusable.emplace(t.pattern, &t);
    }
  }
  const uint64_t all_covers =
      covers.size() == 64 ? ~uint64_t{0} : (uint64_t{1} << covers.size()) - 1;

  TcTreeQueryResult result;
  // Same cancellation contract as QueryWalk: the composed and cold
  // paths expire identically, so a deadline never changes which path a
  // clean answer took.
  const bool bounded = options.deadline.bounded();
  if (bounded && options.deadline.IsExpired()) {
    result.deadline_exceeded = true;
    return result;
  }
  // (node, bitmask of covers its pattern is still ⊆ of). The empty root
  // pattern is a subset of every cover.
  std::deque<std::pair<TcTree::NodeId, uint64_t>> queue;
  queue.emplace_back(TcTree::kRoot, all_covers);
  while (!queue.empty()) {
    const auto [f, mask] = queue.front();
    queue.pop_front();
    const size_t fanout = tree.num_children(f);
    for (size_t k = 0; k < fanout; ++k) {
      const TcTree::NodeId c = tree.child(f, k);
      const ItemId child_item = tree.item(c);
      if (!q.Contains(child_item)) continue;  // subtree can't be ⊆ q
      ++result.visited_nodes;
      if (bounded && result.visited_nodes % kDeadlineCheckStride == 0 &&
          options.deadline.IsExpired()) {
        result.deadline_exceeded = true;
        return result;
      }
      uint64_t child_mask = 0;
      if (mask != 0) {
        const auto it = item_masks.find(child_item);
        if (it != item_masks.end()) child_mask = mask & it->second;
      }
      if (child_mask != 0) {
        // Covered: the cover's answer already settled this pattern.
        const auto hit = reusable.find(tree.PatternOf(c));
        if (hit == reusable.end()) {
          // ⊆ a cover yet absent from its answer: C*_p(α_q) = ∅, and by
          // Prop. 5.2 so is every descendant's truss. The cold walk
          // visits this node and finds it empty, so the prune counter
          // advances identically on both paths.
          ++result.pruned_subtrees;
          if (compose_stats != nullptr) ++compose_stats->covered_prunes;
          continue;
        }
        result.trusses.push_back(*hit->second);
        ++result.retrieved_nodes;
        if (compose_stats != nullptr) ++compose_stats->reused_trusses;
        queue.emplace_back(c, child_mask);
        continue;
      }
      // Residual probe: no cover speaks for this pattern (nor, since
      // supersets of an uncovered pattern stay uncovered, for anything
      // below it — hence mask 0 on descent). Same arithmetic as
      // QueryTcTree.
      if (tree.max_alpha(c) <= aq) {
        ++result.pruned_subtrees;
        continue;
      }
      PatternTruss truss;
      truss.pattern = tree.PatternOf(c);
      truss.edges = tree.EdgesAtAlphaQ(c, aq);
      if (truss.edges.empty()) {
        ++result.pruned_subtrees;
        continue;
      }
      queue.emplace_back(c, uint64_t{0});
      if (options.materialize_vertices) {
        tree.FillVertices(c, &truss);
      }
      result.trusses.push_back(std::move(truss));
      ++result.retrieved_nodes;
      if (compose_stats != nullptr) ++compose_stats->computed_trusses;
    }
  }
  return result;
}

}  // namespace

TcTreeQueryResult QueryTcTree(const TcTree& tree, const Itemset& q,
                              double alpha_q,
                              const TcTreeQueryOptions& options) {
  return QueryWalk(OwnedTreeView{tree}, q, alpha_q, options);
}

TcTreeQueryResult QueryTcTree(const MappedTcTree& tree, const Itemset& q,
                              double alpha_q,
                              const TcTreeQueryOptions& options) {
  return QueryWalk(MappedTreeView{tree}, q, alpha_q, options);
}

TcTreeQueryResult ComposeTcTreeQuery(const TcTree& tree, const Itemset& q,
                                     double alpha_q,
                                     const std::vector<SubPatternCover>& covers,
                                     const TcTreeQueryOptions& options,
                                     TcTreeComposeStats* compose_stats) {
  return ComposeWalk(OwnedTreeView{tree}, q, alpha_q, covers, options,
                     compose_stats);
}

TcTreeQueryResult ComposeTcTreeQuery(const MappedTcTree& tree,
                                     const Itemset& q, double alpha_q,
                                     const std::vector<SubPatternCover>& covers,
                                     const TcTreeQueryOptions& options,
                                     TcTreeComposeStats* compose_stats) {
  return ComposeWalk(MappedTreeView{tree}, q, alpha_q, covers, options,
                     compose_stats);
}

TcTreeQueryResult DeriveSubResult(const TcTreeQueryResult& full,
                                  const Itemset& s) {
  TcTreeQueryResult out;
  for (const PatternTruss& t : full.trusses) {
    if (t.pattern.IsSubsetOf(s)) out.trusses.push_back(t);
  }
  out.retrieved_nodes = out.trusses.size();
  out.visited_nodes = out.trusses.size();
  return out;
}

std::vector<ThemeCommunity> QueryThemeCommunities(const TcTree& tree,
                                                  const Itemset& q,
                                                  double alpha_q) {
  TcTreeQueryResult r = QueryTcTree(tree, q, alpha_q);
  return ExtractThemeCommunities(r.trusses);
}

}  // namespace tcf
