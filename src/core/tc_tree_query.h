#ifndef TCF_CORE_TC_TREE_QUERY_H_
#define TCF_CORE_TC_TREE_QUERY_H_

#include <cstdint>
#include <vector>

#include "core/communities.h"
#include "core/tc_tree.h"
#include "util/deadline.h"

namespace tcf {

class MappedTcTree;  // core/tcfi_format.h

/// Query-time knobs.
struct TcTreeQueryOptions {
  /// When false, results carry edges only (vertices/frequencies skipped),
  /// which is what the Fig.-5 latency harness measures: Eq.-1 edge
  /// retrieval itself.
  bool materialize_vertices = true;
  /// Drop trusses with fewer edges than this from the *result list*
  /// (they are still traversed — emptiness, not size, governs Prop.-5.2
  /// subtree pruning). 0 = keep all.
  size_t min_truss_edges = 0;
  /// Stop collecting after this many trusses (0 = unlimited). Traversal
  /// ends early; `retrieved_nodes` reports the truncated count.
  size_t max_results = 0;
  /// Cooperative cancellation point: checked every
  /// `kDeadlineCheckStride` visited nodes. An expired deadline unwinds
  /// the walk with `TcTreeQueryResult::deadline_exceeded` set and
  /// whatever partial counters it had — never a crash or a hang.
  /// Default-constructed = unbounded (no clock reads at all).
  Deadline deadline{};
};

/// Result of one `(q, α_q)` query (§6.3).
struct TcTreeQueryResult {
  /// `C_q(α_q) = {C*_p(α_q) ≠ ∅ : p ⊆ q}`, in tree BFS order.
  std::vector<PatternTruss> trusses;
  /// Nodes whose truss was non-empty — Fig. 5's "Retrieved Nodes (RN)".
  uint64_t retrieved_nodes = 0;
  /// Nodes whose decomposition was consulted at all.
  uint64_t visited_nodes = 0;
  /// Visited nodes whose truss was empty at α_q, cutting their whole
  /// subtree (Prop. 5.2). Composition counts a cover's absence proof the
  /// same way, so composed and cold walks agree on this field too.
  uint64_t pruned_subtrees = 0;
  /// True when `TcTreeQueryOptions::deadline` expired mid-walk: the
  /// trusses and counters above are partial work, not an answer. The
  /// serving layer turns this into ERR DeadlineExceeded; it must never
  /// be cached or served as a result.
  bool deadline_exceeded = false;
};

/// \brief Algorithm 5: pruned breadth-first collection over the TC-Tree.
///
/// A child is descended only if its item is in `q` (otherwise no
/// descendant pattern can be ⊆ q) and its reconstructed truss at α_q is
/// non-empty (otherwise Prop. 5.2 empties the whole subtree).
TcTreeQueryResult QueryTcTree(const TcTree& tree, const Itemset& q,
                              double alpha_q,
                              const TcTreeQueryOptions& options = {});

/// The same pruned BFS straight over a zero-copy mapped snapshot
/// (core/tcfi_format.h). Both overloads instantiate one templated walk,
/// so results are byte-identical for the same index bytes.
TcTreeQueryResult QueryTcTree(const MappedTcTree& tree, const Itemset& q,
                              double alpha_q,
                              const TcTreeQueryOptions& options = {});

/// A reusable building block for answering `(q, α_q)` by composition:
/// the complete answer of an earlier query `(itemset, α_q)` with
/// `itemset ⊆ q`, produced over the *same* tree snapshot with the same
/// options. Because the answer for q is the superset-union over all
/// patterns p ⊆ q (§6.3), the cover's trusses are exactly the members
/// of the answer whose pattern is ⊆ `itemset` — and a pattern p ⊆
/// `itemset` *missing* from the cover proves `C*_p(α_q) = ∅`, which by
/// Prop. 5.2 empties p's whole subtree.
struct SubPatternCover {
  const Itemset* itemset = nullptr;
  const TcTreeQueryResult* result = nullptr;
};

/// How ComposeTcTreeQuery assembled its answer (for cache accounting).
struct TcTreeComposeStats {
  uint64_t reused_trusses = 0;    // copied from a cover
  uint64_t computed_trusses = 0;  // rebuilt from decompositions
  uint64_t covered_prunes = 0;    // subtrees cut by a cover's absence
};

/// \brief Answers `(q, α_q)` as the deduplicated union of the covers'
/// trusses plus a residual tree probe for the uncovered sub-patterns.
///
/// Walks the same pruned BFS as QueryTcTree, threading a bitmask of
/// which covers still contain the node's pattern. A covered node takes
/// its truss from the cover (or prunes its subtree when the cover lacks
/// it) without touching the node's decomposition — that reconstruction
/// is the cost a cover saves; only uncovered nodes fall back to the
/// QueryTcTree arithmetic. Trusses arrive in the identical BFS order, so
/// the result equals QueryTcTree(tree, q, α_q) field for field.
///
/// Preconditions: every cover was computed over `tree` at the same
/// quantized α_q with the same `options`, and the result-shaping knobs
/// are off (`min_truss_edges == 0`, `max_results == 0` — a cover that
/// dropped or truncated trusses would turn "absent" into a false empty
/// proof). Violations (or > 64 covers) fall back to a plain QueryTcTree.
TcTreeQueryResult ComposeTcTreeQuery(const TcTree& tree, const Itemset& q,
                                     double alpha_q,
                                     const std::vector<SubPatternCover>& covers,
                                     const TcTreeQueryOptions& options = {},
                                     TcTreeComposeStats* compose_stats =
                                         nullptr);

/// Composition over a mapped snapshot — same walk, same guarantees.
TcTreeQueryResult ComposeTcTreeQuery(const MappedTcTree& tree,
                                     const Itemset& q, double alpha_q,
                                     const std::vector<SubPatternCover>& covers,
                                     const TcTreeQueryOptions& options = {},
                                     TcTreeComposeStats* compose_stats =
                                         nullptr);

/// \brief Projects the answer for `q` down to the answer for `s ⊆ q`
/// without touching the tree: keeps exactly the trusses whose pattern is
/// ⊆ s, in order.
///
/// Sound because the answer for s is `{C*_p(α) ≠ ∅ : p ⊆ s}` — a stable
/// filter of the answer for q — and the BFS visit order over s's
/// subforest is a subsequence of the visit order over q's. Requires
/// `full` to be a complete answer (`min_truss_edges == 0`,
/// `max_results == 0`). `visited_nodes` is set to the kept-truss count —
/// the walk that never happened can't be counted, and the conservative
/// value keeps cost-aware cache admission honest.
TcTreeQueryResult DeriveSubResult(const TcTreeQueryResult& full,
                                  const Itemset& s);

/// Convenience: query, then split every retrieved truss into its theme
/// communities (Def. 3.5).
std::vector<ThemeCommunity> QueryThemeCommunities(
    const TcTree& tree, const Itemset& q, double alpha_q);

}  // namespace tcf

#endif  // TCF_CORE_TC_TREE_QUERY_H_
