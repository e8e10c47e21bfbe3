// Correctness oracles of the end-to-end benchmark. Every mismatch counts
// as a failed operation, so a wrong answer fails the run however fast
// it was served.
#ifndef TCF_BENCH_E2E_ORACLES_H_
#define TCF_BENCH_E2E_ORACLES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/tc_tree.h"
#include "core/tc_tree_update.h"
#include "core/tcfi_format.h"
#include "net/database_network.h"
#include "serve/client.h"
#include "serve/query_backend.h"

namespace tcf::e2e {

struct OracleReport {
  size_t checked = 0;
  size_t mismatches = 0;
  std::string first_problem;

  void Fail(std::string problem) {
    ++mismatches;
    if (first_problem.empty()) first_problem = std::move(problem);
  }
};

/// The TRUSSES payload a server must answer `query` with: Algorithm 5
/// over `tree` (QueryTcTree, default options), rendered by EncodeTruss.
std::vector<std::string> ExpectedPayload(const MappedTcTree& tree,
                                         const ItemDictionary& dictionary,
                                         const ServeQuery& query);
std::vector<std::string> ExpectedPayload(const TcTree& tree,
                                         const ItemDictionary& dictionary,
                                         const ServeQuery& query);

/// Sends each query over `client` and compares the framed payload line
/// for line with `expected[i]`.
OracleReport CheckWireAnswers(Client& client,
                              const std::vector<std::string>& lines,
                              const std::vector<std::vector<std::string>>&
                                  expected);

/// Checks a TCFI index against its network: the exact node and indexed
/// edge counts, and `samples` seeded nodes whose decomposition is
/// recomputed from scratch (InduceThemeNetwork over the whole network,
/// then FromThemeNetwork) and compared level by level — thresholds,
/// removed edges and vertices.
OracleReport CheckIndex(const MappedTcTree& index, const DatabaseNetwork& net,
                        uint64_t expect_nodes, uint64_t expect_edges,
                        size_t samples, uint64_t seed);

/// Applies `updates` in order, as the server's updater does.
void ApplyUpdates(const std::vector<NetworkUpdate>& updates,
                  DatabaseNetwork* net);

/// FNV-1a over the payload lines (newline-joined): cheap fingerprints
/// for comparing 5,000 wire answers with in-process ones.
uint64_t PayloadHash(const std::vector<std::string>& payload);

}  // namespace tcf::e2e

#endif  // TCF_BENCH_E2E_ORACLES_H_
