#include "net/binary_io.h"

#include <cstring>
#include <fstream>

#include "graph/graph_builder.h"

namespace tcf {

namespace {

constexpr char kMagic[4] = {'T', 'C', 'F', 'B'};
constexpr uint32_t kVersion = 1;

void WriteU32(std::ostream& os, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(buf, 4);
}

void WriteU64(std::ostream& os, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(buf, 8);
}

void WriteString(std::ostream& os, const std::string& s) {
  WriteU32(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadU32(std::istream& is, uint32_t* v) {
  char buf[4];
  if (!is.read(buf, 4)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return true;
}

bool ReadU64(std::istream& is, uint64_t* v) {
  char buf[8];
  if (!is.read(buf, 8)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return true;
}

bool ReadString(std::istream& is, std::string* s,
                size_t max_len = 1 << 20) {
  uint32_t len = 0;
  if (!ReadU32(is, &len)) return false;
  if (len > max_len) return false;
  s->resize(len);
  return static_cast<bool>(is.read(s->data(), len));
}

}  // namespace

Status SaveNetworkBinary(const DatabaseNetwork& net, std::ostream& os) {
  os.write(kMagic, 4);
  WriteU32(os, kVersion);
  WriteU64(os, net.num_vertices());
  WriteU64(os, net.dictionary().size());
  for (ItemId i = 0; i < net.dictionary().size(); ++i) {
    WriteString(os, net.dictionary().Name(i));
  }
  WriteU64(os, net.num_edges());
  for (const Edge& e : net.graph().edges()) {
    WriteU32(os, e.u);
    WriteU32(os, e.v);
  }
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    const TransactionDb& db = net.db(v);
    WriteU64(os, db.num_transactions());
    for (const Itemset& t : db.transactions()) {
      WriteU32(os, static_cast<uint32_t>(t.size()));
      for (ItemId item : t) WriteU32(os, item);
    }
  }
  if (!os.good()) return Status::IOError("binary write failed");
  return Status::OK();
}

Status SaveNetworkBinaryToFile(const DatabaseNetwork& net,
                               const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f.is_open()) return Status::IOError("cannot open for write: " + path);
  return SaveNetworkBinary(net, f);
}

StatusOr<DatabaseNetwork> LoadNetworkBinary(std::istream& is) {
  char magic[4];
  if (!is.read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::Corruption("bad binary magic");
  }
  uint32_t version = 0;
  if (!ReadU32(is, &version) || version != kVersion) {
    return Status::Corruption("unsupported binary version");
  }
  uint64_t n = 0, k = 0;
  if (!ReadU64(is, &n) || !ReadU64(is, &k)) {
    return Status::Corruption("truncated header");
  }
  ItemDictionary dict;
  for (uint64_t i = 0; i < k; ++i) {
    std::string name;
    if (!ReadString(is, &name)) return Status::Corruption("truncated items");
    if (dict.GetOrAdd(name) != i) {
      return Status::Corruption("duplicate item name");
    }
  }
  uint64_t m = 0;
  if (!ReadU64(is, &m)) return Status::Corruption("truncated edge count");
  GraphBuilder builder(n);
  for (uint64_t e = 0; e < m; ++e) {
    uint32_t u = 0, v = 0;
    if (!ReadU32(is, &u) || !ReadU32(is, &v)) {
      return Status::Corruption("truncated edges");
    }
    if (u >= n || v >= n) return Status::Corruption("edge out of range");
    TCF_RETURN_IF_ERROR(builder.AddEdge(u, v));
  }
  std::vector<TransactionDb> dbs(n);
  for (uint64_t v = 0; v < n; ++v) {
    uint64_t n_tx = 0;
    if (!ReadU64(is, &n_tx)) return Status::Corruption("truncated db header");
    for (uint64_t t = 0; t < n_tx; ++t) {
      uint32_t len = 0;
      if (!ReadU32(is, &len)) return Status::Corruption("truncated tx");
      std::vector<ItemId> items(len);
      for (uint32_t i = 0; i < len; ++i) {
        if (!ReadU32(is, &items[i])) return Status::Corruption("truncated tx");
        if (items[i] >= k) return Status::Corruption("item out of range");
      }
      dbs[v].Add(Itemset(std::move(items)));
    }
  }
  return DatabaseNetwork(builder.Build(), std::move(dbs), std::move(dict));
}

StatusOr<DatabaseNetwork> LoadNetworkBinaryFromFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) return Status::IOError("cannot open for read: " + path);
  return LoadNetworkBinary(f);
}

}  // namespace tcf
