// The end-to-end benchmark's workloads: datasets, query mixes, update
// batches and Poisson arrival schedules.
//
// The dataset parameters are copied here on purpose (from the BK-like
// and SYN recipes of bench/bench_common.cc, BK-like scale 1 with
// generator seed 1001 and SYN scale 1 with seed 4004), so an edit to
// the paper-reproduction harnesses cannot shift these workloads. The
// benchmark's --seed drives only the query streams, the arrival times
// and the update batches; the datasets never change.
#ifndef TCF_BENCH_E2E_WORKLOADS_H_
#define TCF_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/tc_tree_update.h"
#include "net/database_network.h"
#include "serve/query_backend.h"
#include "util/rng.h"

namespace tcf::e2e {

enum class Dataset { kBkLike, kSyn };

enum class QueryMix {
  // Zipf-hot 2-3-item theme cores widened by 0-2 Zipf items, 4 alpha
  // buckets: exact repeats are rare, subset overlap is everywhere.
  kZipfOverlap,
  // Unique 1-4-item uniform itemsets, 4 alpha buckets: no reuse at all.
  kUniformUnique,
};

struct WorkloadSpec {
  const char* name;
  Dataset dataset;
  QueryMix mix;
  double nominal_qps;        // Poisson arrival rate of the measured phase
  size_t query_connections;  // generator threads, one connection each
  double updates_per_s;      // UPDATE batches per second (0 = read-only)
  double slo_p90_us;         // latency limit behind max_qps_at_slo
  double warmup_s;
  size_t setups;          // set-up repetitions; their median is reported
  uint64_t max_nodes;     // tcf index/serve --max-nodes
  uint64_t expect_nodes;  // exact TC-Tree node count of the dataset
  uint64_t expect_edges;  // exact indexed-edge count of the dataset
};

/// Every workload, in the order `--workload=all` runs them.
const std::vector<WorkloadSpec>& Workloads();

/// Null when no workload has that name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// The fixed dataset of a workload (independent of --seed).
DatabaseNetwork MakeDataset(Dataset dataset);

/// A deterministic stream of queries for one (seed, stream) pair.
class QueryStream {
 public:
  QueryStream(const DatabaseNetwork& net, QueryMix mix, uint64_t seed);

  ServeQuery Next();

 private:
  ServeQuery NextZipf();
  ServeQuery NextUniform();

  QueryMix mix_;
  std::vector<ItemId> items_;
  // Two generators so each keeps its own warm Zipf table (Rng caches
  // one CDF keyed on (n, s)).
  Rng item_rng_;
  Rng core_rng_;
  std::vector<Itemset> cores_;
  std::unordered_set<std::string> seen_;  // kUniformUnique keys
};

/// One UPDATE batch: three 1-3-item transaction inserts at uniform
/// vertices and one edge between two distinct uniform vertices. A fixed
/// mix, so batches differ in where they land, not in how much they
/// change.
NetworkUpdate MakeUpdateBatch(Rng& rng, size_t num_vertices,
                              size_t num_items);

/// Poisson arrival offsets in nanoseconds at `rate` per second over
/// [0, seconds).
std::vector<int64_t> PoissonArrivals(Rng& rng, double rate, double seconds);

/// Seed of sub-stream `stream` of the run seeded `seed` (warm-up and
/// measured queries, each capacity probe, the update batches and the
/// oracle sample each draw from their own sub-stream).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace tcf::e2e

#endif  // TCF_BENCH_E2E_WORKLOADS_H_
