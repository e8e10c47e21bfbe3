#ifndef TCF_CORE_TCFI_FORMAT_H_
#define TCF_CORE_TCFI_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cohesion.h"
#include "core/tc_tree.h"
#include "graph/graph.h"
#include "tx/itemset.h"
#include "util/status.h"

namespace tcf {

/// \brief TCFI: the one on-disk index format, zero-copy and mmap-able.
///
/// TCFI persists the tree as pointer-free arena/CSR sections that *are*
/// the serving layout: loading is `mmap` + an O(1) header check (plus
/// optional per-section CRCs and an O(nodes) bounds scan), queries walk
/// the mapped arenas directly, and N server processes on one box share
/// a single physical copy of the index through the page cache. Nothing
/// is parsed or reassembled on load.
///
/// File layout (all integers little-endian on the writing CPU; the
/// `endian` header field rejects foreign-order files at load):
/// \code
///   TcfiHeader   fixed 232 bytes: magic "TCFI" | version | endian
///                marker | header CRC32 (field zeroed while hashing) |
///                file_size | num_nodes (incl. root) | total_edges |
///                global max_alpha | max_depth | shard_id/num_shards |
///                section table (offset, size, CRC32, kind) × 7
///   kNodes       TcfiNodeRec × num_nodes (node 0 = root): item,
///                parent, [begin,count) slices into the other arenas,
///                depth, per-node max alpha
///   kChildren    u32 node ids, concatenated per node (ascending item
///                within each node — the arena preserves build order)
///   kLevels      TcfiLevelRec × total levels: quantized alpha +
///                [begin,count) into kEdges, per node ascending alpha
///   kEdges       (u32 u, u32 v) pairs in level removal order
///   kVertices    u32 vertex ids, per node sorted ascending
///   kFrequencies f64, parallel to kVertices
///   kRootIndex   (u32 item, u32 node) pairs ascending by item: the
///                vertical index over layer-1 subtrees
/// \endcode
/// Sections start at 8-byte-aligned offsets (zero padding between), so
/// every record is naturally aligned once mapped. Patterns are not
/// stored: a node's pattern is its item trail to the root, rebuilt on
/// demand exactly as the in-memory tree does.
///
/// Versioning policy (docs/index-format.md): the magic never changes;
/// readers reject a higher `version` outright. Additive evolution
/// appends new section kinds (old readers must reject unknown section
/// counts, so additions bump the version); any change to an existing
/// record layout bumps the version and drops support for writing the
/// old one — a file the reader rejects is rebuilt with `tcf index`.
///
/// Writers stream to `path + ".tmp"` and rename into place, so a
/// watcher (serve/file_watcher.h) never maps a half-written file; even
/// a non-atomic copy is caught because `ProbeTcfiFile` checks the
/// header CRC and that `file_size` matches the bytes on disk.

/// Section slot order in the header table (also the `kind` tag).
enum TcfiSectionKind : uint32_t {
  kTcfiNodes = 1,
  kTcfiChildren = 2,
  kTcfiLevels = 3,
  kTcfiEdges = 4,
  kTcfiVertices = 5,
  kTcfiFrequencies = 6,
  kTcfiRootIndex = 7,
};

inline constexpr uint32_t kTcfiNumSections = 7;
inline constexpr uint32_t kTcfiVersion = 1;
/// Written as a native u32; reads back byte-swapped on a foreign-endian
/// machine, which the loader reports as a distinct corruption.
inline constexpr uint32_t kTcfiEndianMarker = 0x01020304u;

/// One section-table entry.
struct TcfiSection {
  uint64_t offset = 0;  // from file start; 8-byte aligned
  uint64_t size = 0;    // payload bytes (excluding alignment padding)
  uint32_t crc32 = 0;   // CRC-32 (IEEE) of the payload bytes
  uint32_t kind = 0;    // TcfiSectionKind
};
static_assert(sizeof(TcfiSection) == 24, "TcfiSection layout drifted");

/// The fixed file header. `header_crc` covers the whole header with the
/// field itself zeroed, so truncation or a torn header write can never
/// validate.
struct TcfiHeader {
  char magic[4] = {'T', 'C', 'F', 'I'};
  uint32_t version = kTcfiVersion;
  uint32_t endian = kTcfiEndianMarker;
  uint32_t header_crc = 0;
  uint64_t file_size = 0;
  uint64_t num_nodes = 0;  // including the root
  uint64_t total_edges = 0;
  int64_t max_alpha = 0;  // max over nodes (quantized grid)
  uint32_t max_depth = 0;
  uint32_t shard_id = 0;    // 0-based; 0 when unsharded
  uint32_t num_shards = 1;  // 1 when unsharded
  uint32_t num_sections = kTcfiNumSections;
  TcfiSection sections[kTcfiNumSections];
};
static_assert(sizeof(TcfiHeader) == 64 + 24 * kTcfiNumSections,
              "TcfiHeader layout drifted");

/// One node of the mapped arena. Slices index the shared arenas:
/// children in node ids, levels in TcfiLevelRec records, vertices (and
/// the parallel frequencies) in entries.
struct TcfiNodeRec {
  uint32_t item = 0;
  uint32_t parent = 0;  // TcTree::kNoParent at the root
  uint64_t children_begin = 0;
  uint64_t levels_begin = 0;
  uint64_t verts_begin = 0;
  uint32_t children_count = 0;
  uint32_t levels_count = 0;
  uint32_t verts_count = 0;
  uint32_t depth = 0;
  int64_t max_alpha = 0;  // == decomposition.max_alpha()
};
static_assert(sizeof(TcfiNodeRec) == 56, "TcfiNodeRec layout drifted");

/// One decomposition level: `removed` edges live at
/// [edges_begin, edges_begin + edges_count) of the edge arena.
struct TcfiLevelRec {
  int64_t alpha = 0;
  uint64_t edges_begin = 0;
  uint32_t edges_count = 0;
  uint32_t pad = 0;  // written as zero
};
static_assert(sizeof(TcfiLevelRec) == 24, "TcfiLevelRec layout drifted");

/// One vertical-index entry: the layer-1 node owning `item`'s subtree.
struct TcfiRootIndexRec {
  uint32_t item = 0;
  uint32_t node = 0;
};
static_assert(sizeof(TcfiRootIndexRec) == 8,
              "TcfiRootIndexRec layout drifted");

/// Shard metadata stamped into the header (slice files of a partitioned
/// index carry their position; a plain save uses the defaults).
struct TcfiWriteOptions {
  uint32_t shard_id = 0;
  uint32_t num_shards = 1;
};

/// How much of the file MapTcTree validates before serving from it.
struct TcfiMapOptions {
  /// CRC every section payload (one pass over the file). Off, only the
  /// header CRC and the structural bounds guard the data — right for a
  /// file this process just wrote, wrong for one from the network.
  bool verify_checksums = true;
  /// O(nodes + levels) scan: every arena slice in bounds, parents
  /// before children, level alphas strictly ascending per node. Cheap
  /// relative to the CRC pass; leave it on.
  bool validate_structure = true;
};

/// Serializes `tree` into the TCFI layout at `path` (write to
/// `path + ".tmp"`, fsync-free rename into place).
Status SaveTcTreeBinary(const TcTree& tree, const std::string& path,
                        const TcfiWriteOptions& options = {});

/// \brief A read-only TC-Tree served straight out of an mmap'ed TCFI
/// file — no per-node heap objects, no parse.
///
/// Accessors mirror the TcTree walk surface (tc_tree_query.cc is
/// templated over either). NodeId space is identical to the owned
/// tree's: 0 is the root, ids ascend in BFS commit order.
class MappedTcTree {
 public:
  using NodeId = TcTree::NodeId;

  MappedTcTree() = default;
  ~MappedTcTree();
  MappedTcTree(MappedTcTree&& other) noexcept;
  MappedTcTree& operator=(MappedTcTree&& other) noexcept;
  MappedTcTree(const MappedTcTree&) = delete;
  MappedTcTree& operator=(const MappedTcTree&) = delete;

  bool valid() const { return base_ != nullptr; }
  const std::string& path() const { return path_; }
  /// Bytes mapped (== header file_size).
  size_t FileBytes() const { return size_; }

  /// Pattern-bearing nodes, excluding the root (TcTree::num_nodes).
  size_t num_nodes() const { return num_nodes_total_ - 1; }
  uint32_t shard_id() const { return shard_id_; }
  uint32_t num_shards() const { return num_shards_; }
  CohesionValue MaxAlphaOverNodes() const { return max_alpha_; }
  size_t MaxDepth() const { return max_depth_; }
  uint64_t TotalIndexedEdges() const { return total_edges_; }

  ItemId item(NodeId id) const { return nodes_[id].item; }
  NodeId parent(NodeId id) const { return nodes_[id].parent; }
  uint32_t depth(NodeId id) const { return nodes_[id].depth; }
  CohesionValue node_max_alpha(NodeId id) const {
    return nodes_[id].max_alpha;
  }

  const NodeId* children(NodeId id) const {
    return children_ + nodes_[id].children_begin;
  }
  size_t num_children(NodeId id) const { return nodes_[id].children_count; }

  const TcfiLevelRec* levels(NodeId id) const {
    return levels_ + nodes_[id].levels_begin;
  }
  size_t num_levels(NodeId id) const { return nodes_[id].levels_count; }
  /// Edges of one level, in removal order.
  const Edge* level_edges(const TcfiLevelRec& level) const {
    return edges_ + level.edges_begin;
  }

  const VertexId* vertices(NodeId id) const {
    return vertices_ + nodes_[id].verts_begin;
  }
  const double* frequencies(NodeId id) const {
    return frequencies_ + nodes_[id].verts_begin;
  }
  size_t num_vertices(NodeId id) const { return nodes_[id].verts_count; }

  /// Eq. 1 against the mapped levels — byte-identical results to
  /// TrussDecomposition::EdgesAtAlphaQ (same suffix concatenation, same
  /// final sort).
  std::vector<Edge> EdgesAtAlphaQ(NodeId id, CohesionValue alpha_q) const;

  /// The node's pattern: its item trail to the root, like
  /// TcTree::PatternOf.
  Itemset PatternOf(NodeId id) const;

  /// A heap-owned copy of a non-root node's decomposition, assembled
  /// from its level, vertex and frequency records — field for field the
  /// one the file was saved from. MaterializeTcTree builds every node's
  /// this way, and the incremental replay every node it copies out of
  /// a mapped baseline (core/tc_tree_update.h).
  TrussDecomposition Decomposition(NodeId id) const;

  /// The vertical index: layer-1 entries ascending by item.
  const TcfiRootIndexRec* root_index() const { return roots_; }
  size_t root_index_size() const { return num_roots_; }

 private:
  friend StatusOr<MappedTcTree> MapTcTree(const std::string& path,
                                          const TcfiMapOptions& options);

  void Reset() noexcept;

  void* base_ = nullptr;  // mmap base; null when invalid
  size_t size_ = 0;
  std::string path_;

  const TcfiNodeRec* nodes_ = nullptr;
  const NodeId* children_ = nullptr;
  const TcfiLevelRec* levels_ = nullptr;
  const Edge* edges_ = nullptr;
  const VertexId* vertices_ = nullptr;
  const double* frequencies_ = nullptr;
  const TcfiRootIndexRec* roots_ = nullptr;
  size_t num_nodes_total_ = 0;  // including the root
  size_t num_roots_ = 0;
  uint64_t total_edges_ = 0;
  CohesionValue max_alpha_ = 0;
  uint32_t max_depth_ = 0;
  uint32_t shard_id_ = 0;
  uint32_t num_shards_ = 1;
};

/// Maps `path` read-only and validates per `options`. Every corruption
/// — bad magic, foreign endianness, unsupported version, header or
/// section CRC mismatch, truncation, out-of-bounds arena slice —
/// returns a clean Status (never crashes, property-tested in
/// tests/tcfi_corrupt_test.cc). This is the only index loader: a file
/// in any other format fails the magic check with a Corruption that
/// says to rebuild it with `tcf index`.
StatusOr<MappedTcTree> MapTcTree(const std::string& path,
                                 const TcfiMapOptions& options = {});

/// O(1) completeness probe: reads just the fixed header and checks
/// magic, version, endianness, header CRC, and that `file_size` matches
/// the bytes actually on disk. This is how the file watcher skips a
/// half-written `.tcfi` without attempting (and miscounting) a load.
Status ProbeTcfiFile(const std::string& path);

/// Rebuilds a heap-owned TcTree from the mapped arenas
/// (MappedTcTree::Decomposition per node + FromNodes). Answers and
/// re-serialized bytes are identical to the tree the file was saved
/// from; used where an owned tree is needed (partitioning a mapped full
/// index into shards).
TcTree MaterializeTcTree(const MappedTcTree& mapped);

/// Canonical per-shard slice filename: `base` + ".shard<i>-of-<n>".
std::string TcfiSlicePath(const std::string& base, size_t shard,
                          size_t num_shards);

/// True when all `num_shards` slice files of `base` exist. Whether they
/// map is MapTcTree's to say: a bad slice fails its load, it does not
/// send the caller back to the whole-tree file.
bool TcfiSlicesExist(const std::string& base, size_t num_shards);

/// Partitions a tree (core/partition.h semantics — pattern owned by the
/// shard of its minimum item, HashShardPartitioner as a sharded
/// QueryService uses) and writes one TCFI slice per shard
/// next to `base` (TcfiSlicePath names), each stamped with its
/// shard_id/num_shards.
Status SaveTcfiShardSlices(TcTree tree, const std::string& base,
                           size_t num_shards);

namespace tcfi_internal {
/// CRC-32 (IEEE 802.3, reflected, slicing-by-8). Exposed for the
/// corrupt-file tests, which forge checksums.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);
}  // namespace tcfi_internal

}  // namespace tcf

#endif  // TCF_CORE_TCFI_FORMAT_H_
