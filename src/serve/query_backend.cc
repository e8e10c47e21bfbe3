#include "serve/query_backend.h"

#include <utility>

#include "core/tcfi_format.h"

namespace tcf {

StatusOr<size_t> QueryBackend::ReloadFromFile(const std::string& path) {
  auto mapped = MapTcTree(path);
  if (!mapped.ok()) return mapped.status();
  TcTree tree = MaterializeTcTree(*mapped);
  const size_t nodes = tree.num_nodes();
  SwapSnapshot(std::move(tree));
  return nodes;
}

}  // namespace tcf
