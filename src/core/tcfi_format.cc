#include "core/tcfi_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <utility>

#include "core/partition.h"
#include "util/string_util.h"

namespace tcf {

namespace tcfi_internal {

namespace {

/// Slicing-by-8 tables for the reflected IEEE CRC-32 polynomial,
/// generated once (thread-safe magic static).
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
      }
    }
  }
};

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const Crc32Tables tables;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  while (size >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    crc ^= lo;
    crc = tables.t[7][crc & 0xFF] ^ tables.t[6][(crc >> 8) & 0xFF] ^
          tables.t[5][(crc >> 16) & 0xFF] ^ tables.t[4][crc >> 24] ^
          tables.t[3][hi & 0xFF] ^ tables.t[2][(hi >> 8) & 0xFF] ^
          tables.t[1][(hi >> 16) & 0xFF] ^ tables.t[0][hi >> 24];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = tables.t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace tcfi_internal

namespace {

using tcfi_internal::Crc32;

static_assert(std::is_trivially_copyable_v<TcfiHeader>);
static_assert(std::is_trivially_copyable_v<TcfiNodeRec>);
static_assert(std::is_trivially_copyable_v<TcfiLevelRec>);
static_assert(std::is_trivially_copyable_v<Edge>);
static_assert(sizeof(Edge) == 8, "Edge must pack into the TCFI arena");

uint64_t AlignUp8(uint64_t v) { return (v + 7) & ~uint64_t{7}; }

/// Record size of each section slot (slot = kind - 1).
constexpr size_t kSectionRecordSize[kTcfiNumSections] = {
    sizeof(TcfiNodeRec),       // kTcfiNodes
    sizeof(uint32_t),          // kTcfiChildren
    sizeof(TcfiLevelRec),      // kTcfiLevels
    sizeof(Edge),              // kTcfiEdges
    sizeof(VertexId),          // kTcfiVertices
    sizeof(double),            // kTcfiFrequencies
    sizeof(TcfiRootIndexRec),  // kTcfiRootIndex
};

uint32_t HeaderCrc(const TcfiHeader& header) {
  TcfiHeader copy = header;
  copy.header_crc = 0;
  return Crc32(&copy, sizeof(copy));
}

Status WriteSection(std::ofstream& os, uint64_t offset, const void* data,
                    uint64_t size) {
  const auto pos = static_cast<uint64_t>(os.tellp());
  // Zero padding up to the section's aligned offset.
  for (uint64_t i = pos; i < offset; ++i) os.put('\0');
  if (size > 0) os.write(static_cast<const char*>(data), size);
  if (!os.good()) return Status::IOError("tcfi write failed");
  return Status::OK();
}

constexpr char kMagic[4] = {'T', 'C', 'F', 'I'};

Status BadMagic() {
  return Status::Corruption(
      "bad tcfi magic: not a TCFI index file (rebuild it with `tcf index`)");
}

/// The refusal for a file too short to hold the header, whose first
/// `got` bytes are `head`. Four bytes that are not the magic mean another
/// format altogether, so that file gets the rebuild hint, not a size
/// complaint.
Status ShortFileStatus(const char* head, size_t got) {
  if (got >= sizeof(kMagic) && std::memcmp(head, kMagic, sizeof(kMagic)) != 0) {
    return BadMagic();
  }
  return Status::Corruption("tcfi file shorter than its header");
}

/// Reads and fully validates the fixed header (magic, endianness,
/// version, CRC, size match, section-table sanity). `actual_size` is
/// the byte count on disk.
Status ValidateHeader(const TcfiHeader& header, uint64_t actual_size) {
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return BadMagic();
  }
  if (header.endian != kTcfiEndianMarker) {
    const uint32_t swapped = __builtin_bswap32(header.endian);
    if (swapped == kTcfiEndianMarker) {
      return Status::Corruption(
          "tcfi file was written on a machine with different endianness");
    }
    return Status::Corruption("bad tcfi endian marker");
  }
  if (header.version == 0 || header.version > kTcfiVersion) {
    return Status::Corruption(
        StrFormat("unsupported tcfi version %u", header.version));
  }
  if (HeaderCrc(header) != header.header_crc) {
    return Status::Corruption("tcfi header checksum mismatch");
  }
  if (header.file_size != actual_size) {
    return Status::Corruption(
        StrFormat("tcfi size mismatch: header says %llu bytes, file has %llu",
                  static_cast<unsigned long long>(header.file_size),
                  static_cast<unsigned long long>(actual_size)));
  }
  if (header.num_sections != kTcfiNumSections) {
    return Status::Corruption("tcfi section count mismatch");
  }
  if (header.num_nodes == 0) {
    return Status::Corruption("tcfi has no nodes (not even a root)");
  }
  if (header.num_nodes > static_cast<uint64_t>(TcTree::kNoParent)) {
    return Status::Corruption("tcfi node count exceeds the id space");
  }
  for (uint32_t s = 0; s < kTcfiNumSections; ++s) {
    const TcfiSection& sec = header.sections[s];
    if (sec.kind != s + 1) {
      return Status::Corruption("tcfi section table out of order");
    }
    if (sec.offset % 8 != 0 || sec.offset < sizeof(TcfiHeader)) {
      return Status::Corruption("tcfi section misaligned");
    }
    if (sec.offset > header.file_size ||
        sec.size > header.file_size - sec.offset) {
      return Status::Corruption("tcfi section out of bounds");
    }
    if (sec.size % kSectionRecordSize[s] != 0) {
      return Status::Corruption("tcfi section size not record-aligned");
    }
  }
  if (header.sections[kTcfiNodes - 1].size !=
      header.num_nodes * sizeof(TcfiNodeRec)) {
    return Status::Corruption("tcfi node section disagrees with header");
  }
  if (header.sections[kTcfiVertices - 1].size / sizeof(VertexId) !=
      header.sections[kTcfiFrequencies - 1].size / sizeof(double)) {
    return Status::Corruption("tcfi vertex/frequency sections diverge");
  }
  return Status::OK();
}

}  // namespace

Status SaveTcTreeBinary(const TcTree& tree, const std::string& path,
                        const TcfiWriteOptions& options) {
  const uint64_t total = tree.num_nodes() + 1;
  std::vector<TcfiNodeRec> nodes(total);
  std::vector<uint32_t> children;
  std::vector<TcfiLevelRec> levels;
  std::vector<Edge> edges;
  std::vector<VertexId> verts;
  std::vector<double> freqs;
  std::vector<TcfiRootIndexRec> roots;

  TcfiHeader header;
  header.num_nodes = total;
  header.shard_id = options.shard_id;
  header.num_shards = options.num_shards == 0 ? 1 : options.num_shards;

  for (TcTree::NodeId id = 0; id < total; ++id) {
    const TcTree::Node& n = tree.node(id);
    TcfiNodeRec& rec = nodes[id];
    rec.item = n.item;
    rec.parent = n.parent;
    rec.depth = id == 0 ? 0 : nodes[n.parent].depth + 1;
    header.max_depth = std::max(header.max_depth, rec.depth);

    rec.children_begin = children.size();
    rec.children_count = static_cast<uint32_t>(n.children.size());
    children.insert(children.end(), n.children.begin(), n.children.end());

    const TrussDecomposition& d = n.decomposition;
    rec.levels_begin = levels.size();
    rec.levels_count = static_cast<uint32_t>(d.levels().size());
    for (const DecompositionLevel& level : d.levels()) {
      TcfiLevelRec lrec;
      lrec.alpha = level.alpha;
      lrec.edges_begin = edges.size();
      lrec.edges_count = static_cast<uint32_t>(level.removed.size());
      levels.push_back(lrec);
      edges.insert(edges.end(), level.removed.begin(), level.removed.end());
    }
    rec.verts_begin = verts.size();
    rec.verts_count = static_cast<uint32_t>(d.vertices().size());
    verts.insert(verts.end(), d.vertices().begin(), d.vertices().end());
    freqs.insert(freqs.end(), d.frequencies().begin(), d.frequencies().end());

    rec.max_alpha = d.max_alpha();
    header.max_alpha = std::max(header.max_alpha, rec.max_alpha);
  }
  header.total_edges = edges.size();
  for (TcTree::NodeId c : tree.node(TcTree::kRoot).children) {
    roots.push_back({tree.node(c).item, c});
  }

  const void* payloads[kTcfiNumSections] = {
      nodes.data(), children.data(), levels.data(),  edges.data(),
      verts.data(), freqs.data(),    roots.data(),
  };
  const uint64_t sizes[kTcfiNumSections] = {
      nodes.size() * sizeof(TcfiNodeRec),
      children.size() * sizeof(uint32_t),
      levels.size() * sizeof(TcfiLevelRec),
      edges.size() * sizeof(Edge),
      verts.size() * sizeof(VertexId),
      freqs.size() * sizeof(double),
      roots.size() * sizeof(TcfiRootIndexRec),
  };
  uint64_t offset = sizeof(TcfiHeader);
  for (uint32_t s = 0; s < kTcfiNumSections; ++s) {
    offset = AlignUp8(offset);
    TcfiSection& sec = header.sections[s];
    sec.kind = s + 1;
    sec.offset = offset;
    sec.size = sizes[s];
    sec.crc32 = Crc32(payloads[s], sizes[s]);
    offset += sizes[s];
  }
  header.file_size = offset;
  header.header_crc = HeaderCrc(header);

  // Stream to a sibling temp file and rename into place: a watcher (or
  // a concurrent mapper) can never observe a half-written index under
  // the final name, and even a torn copy fails ProbeTcfiFile's CRC +
  // size check.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f.is_open()) {
      return Status::IOError("cannot open for write: " + tmp);
    }
    f.write(reinterpret_cast<const char*>(&header), sizeof(header));
    for (uint32_t s = 0; s < kTcfiNumSections; ++s) {
      const Status st = WriteSection(f, header.sections[s].offset,
                                     payloads[s], sizes[s]);
      if (!st.ok()) return st;
    }
    if (!f.good()) return Status::IOError("tcfi write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " into " + path);
  }
  return Status::OK();
}

MappedTcTree::~MappedTcTree() { Reset(); }

void MappedTcTree::Reset() noexcept {
  if (base_ != nullptr) {
    ::munmap(base_, size_);
    base_ = nullptr;
  }
  size_ = 0;
}

MappedTcTree::MappedTcTree(MappedTcTree&& other) noexcept {
  *this = std::move(other);
}

MappedTcTree& MappedTcTree::operator=(MappedTcTree&& other) noexcept {
  if (this == &other) return *this;
  Reset();
  base_ = std::exchange(other.base_, nullptr);
  size_ = std::exchange(other.size_, 0);
  path_ = std::move(other.path_);
  nodes_ = other.nodes_;
  children_ = other.children_;
  levels_ = other.levels_;
  edges_ = other.edges_;
  vertices_ = other.vertices_;
  frequencies_ = other.frequencies_;
  roots_ = other.roots_;
  num_nodes_total_ = other.num_nodes_total_;
  num_roots_ = other.num_roots_;
  total_edges_ = other.total_edges_;
  max_alpha_ = other.max_alpha_;
  max_depth_ = other.max_depth_;
  shard_id_ = other.shard_id_;
  num_shards_ = other.num_shards_;
  return *this;
}

std::vector<Edge> MappedTcTree::EdgesAtAlphaQ(NodeId id,
                                              CohesionValue alpha_q) const {
  const TcfiLevelRec* begin = levels(id);
  const TcfiLevelRec* end = begin + num_levels(id);
  // Levels ascend, so binary search for the first level with α_k > α —
  // the same upper_bound TrussDecomposition::EdgesAtAlphaQ runs.
  const TcfiLevelRec* it = std::upper_bound(
      begin, end, alpha_q,
      [](CohesionValue a, const TcfiLevelRec& l) { return a < l.alpha; });
  size_t count = 0;
  for (const TcfiLevelRec* j = it; j != end; ++j) count += j->edges_count;
  std::vector<Edge> out;
  out.reserve(count);
  for (const TcfiLevelRec* j = it; j != end; ++j) {
    const Edge* e = level_edges(*j);
    out.insert(out.end(), e, e + j->edges_count);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Itemset MappedTcTree::PatternOf(NodeId id) const {
  std::vector<ItemId> items;
  for (NodeId x = id; x != TcTree::kRoot; x = nodes_[x].parent) {
    items.push_back(nodes_[x].item);
  }
  return Itemset(std::move(items));
}

StatusOr<MappedTcTree> MapTcTree(const std::string& path,
                                 const TcfiMapOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open for read: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat: " + path);
  }
  const auto actual_size = static_cast<uint64_t>(st.st_size);
  if (actual_size < sizeof(TcfiHeader)) {
    char head[sizeof(kMagic)];
    const ssize_t got = ::pread(fd, head, sizeof(head), 0);
    ::close(fd);
    return ShortFileStatus(head, got > 0 ? static_cast<size_t>(got) : 0);
  }
  void* base = ::mmap(nullptr, actual_size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (base == MAP_FAILED) {
    return Status::IOError("mmap failed: " + path);
  }

  MappedTcTree t;
  t.base_ = base;
  t.size_ = actual_size;
  t.path_ = path;

  TcfiHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (Status st_h = ValidateHeader(header, actual_size); !st_h.ok()) {
    return st_h;  // t's destructor unmaps
  }

  if (options.verify_checksums) {
    for (uint32_t s = 0; s < kTcfiNumSections; ++s) {
      const TcfiSection& sec = header.sections[s];
      const uint32_t crc =
          Crc32(static_cast<const char*>(base) + sec.offset, sec.size);
      if (crc != sec.crc32) {
        return Status::Corruption(
            StrFormat("tcfi section %u checksum mismatch", sec.kind));
      }
    }
  }

  const char* bytes = static_cast<const char*>(base);
  const TcfiSection* secs = header.sections;
  t.nodes_ = reinterpret_cast<const TcfiNodeRec*>(
      bytes + secs[kTcfiNodes - 1].offset);
  t.children_ = reinterpret_cast<const MappedTcTree::NodeId*>(
      bytes + secs[kTcfiChildren - 1].offset);
  t.levels_ = reinterpret_cast<const TcfiLevelRec*>(
      bytes + secs[kTcfiLevels - 1].offset);
  t.edges_ =
      reinterpret_cast<const Edge*>(bytes + secs[kTcfiEdges - 1].offset);
  t.vertices_ = reinterpret_cast<const VertexId*>(
      bytes + secs[kTcfiVertices - 1].offset);
  t.frequencies_ = reinterpret_cast<const double*>(
      bytes + secs[kTcfiFrequencies - 1].offset);
  t.roots_ = reinterpret_cast<const TcfiRootIndexRec*>(
      bytes + secs[kTcfiRootIndex - 1].offset);
  t.num_nodes_total_ = header.num_nodes;
  t.num_roots_ = secs[kTcfiRootIndex - 1].size / sizeof(TcfiRootIndexRec);
  t.total_edges_ = header.total_edges;
  t.max_alpha_ = header.max_alpha;
  t.max_depth_ = header.max_depth;
  t.shard_id_ = header.shard_id;
  t.num_shards_ = header.num_shards;

  if (options.validate_structure) {
    const uint64_t n_children =
        secs[kTcfiChildren - 1].size / sizeof(uint32_t);
    const uint64_t n_levels =
        secs[kTcfiLevels - 1].size / sizeof(TcfiLevelRec);
    const uint64_t n_edges = secs[kTcfiEdges - 1].size / sizeof(Edge);
    const uint64_t n_verts =
        secs[kTcfiVertices - 1].size / sizeof(VertexId);
    const uint64_t total = header.num_nodes;
    for (uint64_t id = 0; id < total; ++id) {
      const TcfiNodeRec& n = t.nodes_[id];
      if (id == 0) {
        if (n.parent != TcTree::kNoParent || n.depth != 0) {
          return Status::Corruption("tcfi node 0 is not a root");
        }
      } else {
        // BFS commit order: every parent precedes its children, which
        // also rules out parent cycles in one pass.
        if (n.parent >= id) {
          return Status::Corruption("tcfi parent does not precede child");
        }
        if (n.depth != t.nodes_[n.parent].depth + 1) {
          return Status::Corruption("tcfi node depth inconsistent");
        }
      }
      if (n.children_begin > n_children ||
          n.children_count > n_children - n.children_begin) {
        return Status::Corruption("tcfi child slice out of bounds");
      }
      for (uint32_t c = 0; c < n.children_count; ++c) {
        const MappedTcTree::NodeId child = t.children_[n.children_begin + c];
        if (child <= id || child >= total) {
          return Status::Corruption("tcfi child id out of range");
        }
      }
      if (n.levels_begin > n_levels ||
          n.levels_count > n_levels - n.levels_begin) {
        return Status::Corruption("tcfi level slice out of bounds");
      }
      for (uint32_t k = 0; k < n.levels_count; ++k) {
        const TcfiLevelRec& level = t.levels_[n.levels_begin + k];
        if (level.edges_count == 0) {
          return Status::Corruption("tcfi empty decomposition level");
        }
        if (level.edges_begin > n_edges ||
            level.edges_count > n_edges - level.edges_begin) {
          return Status::Corruption("tcfi edge slice out of bounds");
        }
        if (k > 0 && level.alpha <= t.levels_[n.levels_begin + k - 1].alpha) {
          return Status::Corruption("tcfi levels not strictly ascending");
        }
      }
      const CohesionValue want_max =
          n.levels_count == 0
              ? 0
              : t.levels_[n.levels_begin + n.levels_count - 1].alpha;
      if (n.max_alpha != want_max) {
        return Status::Corruption("tcfi node max_alpha inconsistent");
      }
      if (n.verts_begin > n_verts ||
          n.verts_count > n_verts - n.verts_begin) {
        return Status::Corruption("tcfi vertex slice out of bounds");
      }
    }
    // The vertical index must mirror the root's child list exactly.
    const TcfiNodeRec& root = t.nodes_[0];
    if (t.num_roots_ != root.children_count) {
      return Status::Corruption("tcfi root index size mismatch");
    }
    for (uint64_t r = 0; r < t.num_roots_; ++r) {
      const TcfiRootIndexRec& rec = t.roots_[r];
      const MappedTcTree::NodeId child = t.children_[root.children_begin + r];
      if (rec.node != child || rec.item != t.nodes_[child].item) {
        return Status::Corruption("tcfi root index entry mismatch");
      }
      if (r > 0 && rec.item <= t.roots_[r - 1].item) {
        return Status::Corruption("tcfi root index not ascending");
      }
    }
  }
  return t;
}

Status ProbeTcfiFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) return Status::IOError("cannot open for read: " + path);
  f.seekg(0, std::ios::end);
  const auto actual_size = static_cast<uint64_t>(f.tellg());
  f.seekg(0);
  if (actual_size < sizeof(TcfiHeader)) {
    char head[sizeof(kMagic)];
    f.read(head, sizeof(head));
    return ShortFileStatus(head, static_cast<size_t>(f.gcount()));
  }
  TcfiHeader header;
  f.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!f.good()) return Status::IOError("cannot read header: " + path);
  return ValidateHeader(header, actual_size);
}

TrussDecomposition MappedTcTree::Decomposition(NodeId id) const {
  std::vector<DecompositionLevel> parts(num_levels(id));
  for (size_t k = 0; k < parts.size(); ++k) {
    const TcfiLevelRec& rec = levels(id)[k];
    parts[k].alpha = rec.alpha;
    const Edge* e = level_edges(rec);
    parts[k].removed.assign(e, e + rec.edges_count);
  }
  const size_t n = num_vertices(id);
  return TrussDecomposition::FromParts(
      PatternOf(id), std::vector<VertexId>(vertices(id), vertices(id) + n),
      std::vector<double>(frequencies(id), frequencies(id) + n),
      std::move(parts));
}

TcTree MaterializeTcTree(const MappedTcTree& mapped) {
  const size_t total = mapped.num_nodes() + 1;
  std::deque<TcTree::Node> nodes;
  for (size_t i = 0; i < total; ++i) {
    const auto id = static_cast<MappedTcTree::NodeId>(i);
    TcTree::Node n;
    n.item = mapped.item(id);
    n.parent = mapped.parent(id);
    n.children.assign(mapped.children(id),
                      mapped.children(id) + mapped.num_children(id));
    if (id != TcTree::kRoot) n.decomposition = mapped.Decomposition(id);
    nodes.push_back(std::move(n));
  }
  return TcTree::FromNodes(std::move(nodes));
}

std::string TcfiSlicePath(const std::string& base, size_t shard,
                          size_t num_shards) {
  return StrFormat("%s.shard%zu-of-%zu", base.c_str(), shard, num_shards);
}

bool TcfiSlicesExist(const std::string& base, size_t num_shards) {
  for (size_t s = 0; s < num_shards; ++s) {
    struct stat st;
    if (::stat(TcfiSlicePath(base, s, num_shards).c_str(), &st) != 0) {
      return false;
    }
  }
  return true;
}

Status SaveTcfiShardSlices(TcTree tree, const std::string& base,
                           size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  const HashShardPartitioner partitioner;
  std::vector<TcTree> parts =
      PartitionTcTree(std::move(tree), partitioner, num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    TcfiWriteOptions options;
    options.shard_id = static_cast<uint32_t>(s);
    options.num_shards = static_cast<uint32_t>(num_shards);
    const Status st = SaveTcTreeBinary(
        parts[s], TcfiSlicePath(base, s, num_shards), options);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace tcf
