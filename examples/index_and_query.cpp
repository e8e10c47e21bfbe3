// Indexing and query-answering example (§6): build a TC-Tree once, then
// answer many (pattern, alpha) queries without re-mining — the paper's
// data-warehouse workflow. Also shows serialization: the network is
// saved and reloaded before indexing, as a warehouse pipeline would.
//
// Build & run:  ./build/examples/index_and_query
#include <cstdio>

#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "core/tcfi_format.h"
#include "gen/syn_generator.h"
#include "net/network_io.h"
#include "util/timer.h"

using namespace tcf;

int main() {
  // ----- 1. Generate and persist a synthetic database network. ---------
  SynParams params;
  params.num_vertices = 800;
  params.num_edges = 3200;
  params.num_items = 150;
  params.num_seeds = 12;
  params.seed = 31337;
  DatabaseNetwork generated = GenerateSynNetwork(params);

  const std::string path = "/tmp/tcf_example_network.txt";
  if (Status s = SaveNetworkToFile(generated, path); !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("saved network to %s\n", path.c_str());

  auto loaded = LoadNetworkFromFile(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const DatabaseNetwork& net = *loaded;
  std::printf("reloaded: %zu vertices, %zu edges, %zu items\n\n",
              net.num_vertices(), net.num_edges(), net.num_items());

  // ----- 2. Build the index once, persist it, map it back. --------------
  WallTimer build_timer;
  TcTree built = TcTree::Build(net, {.num_threads = 4});
  std::printf("TC-Tree built: %zu nodes, %llu indexed edges, %.2f s\n",
              built.num_nodes(),
              static_cast<unsigned long long>(built.TotalIndexedEdges()),
              build_timer.Seconds());

  const std::string index_path = "/tmp/tcf_example_network.tcfi";
  if (Status s = SaveTcTreeBinary(built, index_path); !s.ok()) {
    std::fprintf(stderr, "index save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  WallTimer reload_timer;
  auto mapped = MapTcTree(index_path);
  if (!mapped.ok()) {
    std::fprintf(stderr, "index map failed: %s\n",
                 mapped.status().ToString().c_str());
    return 1;
  }
  const MappedTcTree& tree = *mapped;
  std::printf("index persisted to %s and mapped back in %.3f s\n",
              index_path.c_str(), reload_timer.Seconds());
  const double alpha_star = CohesionToDouble(tree.MaxAlphaOverNodes());
  std::printf("nontrivial query range: alpha in [0, %.4f)\n\n", alpha_star);

  // ----- 3. Answer queries at many alphas with no re-mining. -----------
  Itemset everything(net.ActiveItems());
  std::printf("QBA sweep (query = S):\n");
  for (double alpha = 0.0; alpha < alpha_star; alpha += alpha_star / 5.0) {
    WallTimer t;
    TcTreeQueryResult r = QueryTcTree(tree, everything, alpha);
    std::printf("  alpha=%-8.4f -> %6llu trusses in %8.3f ms\n", alpha,
                static_cast<unsigned long long>(r.retrieved_nodes),
                t.Millis());
  }

  // ----- 4. Query by pattern: drill into one theme. ---------------------
  // Take the deepest indexed pattern as the "user query".
  Itemset deepest;
  for (TcTree::NodeId id = 1; id <= tree.num_nodes(); ++id) {
    Itemset p = tree.PatternOf(id);
    if (p.size() > deepest.size()) deepest = std::move(p);
  }
  std::printf("\nQBP: drill into pattern %s\n",
              net.dictionary().Render(deepest).c_str());
  TcTreeQueryResult r = QueryTcTree(tree, deepest, 0.0);
  std::printf("  %llu sub-pattern trusses retrieved:\n",
              static_cast<unsigned long long>(r.retrieved_nodes));
  for (const PatternTruss& truss : r.trusses) {
    std::printf("   %-36s |V|=%4zu |E|=%4zu\n",
                net.dictionary().Render(truss.pattern).c_str(),
                truss.num_vertices(), truss.num_edges());
  }
  return 0;
}
