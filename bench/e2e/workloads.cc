#include "workloads.h"

#include <cmath>
#include <utility>

#include "gen/checkin_generator.h"
#include "gen/syn_generator.h"
#include "util/string_util.h"

namespace tcf::e2e {
namespace {

constexpr uint64_t kHotThemeSeed = 17;

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  // Rates and SLOs are frozen from the calibration runs in
  // bench/e2e/baseline/ (README.md, "Calibration"): each nominal rate is
  // 30-50% of that workload's max_qps_at_slo on the reference box, except
  // bk-zipf's in the host's slow stretches (up to 53%).
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "bk-zipf",
       .dataset = Dataset::kBkLike,
       .mix = QueryMix::kZipfOverlap,
       .nominal_qps = 2400,
       .query_connections = 4,
       .updates_per_s = 0,
       .slo_p90_us = 2000,
       .warmup_s = 3,
       .setups = 9,
       .max_nodes = 2000000,
       .expect_nodes = 1104,
       .expect_edges = 42876},
      {.name = "syn-uniform",
       .dataset = Dataset::kSyn,
       .mix = QueryMix::kUniformUnique,
       .nominal_qps = 14000,
       .query_connections = 4,
       .updates_per_s = 0,
       .slo_p90_us = 250,
       .warmup_s = 2,
       .setups = 3,
       .max_nodes = 1000000,
       .expect_nodes = 1000002,
       .expect_edges = 3012547},
      {.name = "bk-churn",
       .dataset = Dataset::kBkLike,
       .mix = QueryMix::kZipfOverlap,
       .nominal_qps = 1000,
       .query_connections = 3,
       .updates_per_s = 4,
       .slo_p90_us = 5000,
       .warmup_s = 3,
       .setups = 9,
       .max_nodes = 2000000,
       .expect_nodes = 1104,
       .expect_edges = 42876},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

DatabaseNetwork MakeDataset(Dataset dataset) {
  if (dataset == Dataset::kBkLike) {
    CheckinParams p;
    p.num_users = 3000;
    p.num_locations = 500;
    p.friends_k = 4;
    p.rewire_beta = 0.1;
    p.periods_per_user = 22;
    p.locations_per_period = 2.0;
    p.favorites_per_user = 6;
    p.social_mimicry = 0.55;
    p.seed = 1001;
    return GenerateCheckinNetwork(p);
  }
  SynParams p;
  p.num_vertices = 3000;
  p.num_edges = 27000;
  p.num_items = 2500;
  p.num_seeds = 30;
  p.mutation_rate = 0.1;
  p.seed = 4004;
  return GenerateSynNetwork(p);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over the pair: nearby seeds and streams land on
  // unrelated generator states.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

QueryStream::QueryStream(const DatabaseNetwork& net, QueryMix mix,
                         uint64_t seed)
    : mix_(mix),
      items_(net.ActiveItems()),
      item_rng_(seed),
      core_rng_(seed ^ 0x9e3779b97f4a7c15ull) {
  if (mix_ != QueryMix::kZipfOverlap) return;
  // The hot themes belong to the dataset, not to the seed: every seed
  // queries the same 48 cores, so seeds differ in traffic, not in how
  // much work the popular queries take.
  Rng theme_rng(kHotThemeSeed);
  for (size_t i = 0; i < 48; ++i) {
    std::vector<ItemId> core;
    const size_t len = 2 + theme_rng.NextUint64(2);
    for (size_t j = 0; j < len; ++j) {
      core.push_back(items_[theme_rng.NextZipf(items_.size(), 1.07)]);
    }
    cores_.push_back(Itemset(std::move(core)));
  }
}

ServeQuery QueryStream::Next() {
  return mix_ == QueryMix::kZipfOverlap ? NextZipf() : NextUniform();
}

ServeQuery QueryStream::NextZipf() {
  Itemset q = cores_[core_rng_.NextZipf(cores_.size(), 1.07)];
  const size_t widen = core_rng_.NextUint64(3);
  for (size_t j = 0; j < widen; ++j) {
    q = q.Union(items_[item_rng_.NextZipf(items_.size(), 1.07)]);
  }
  ServeQuery query;
  query.items = std::move(q);
  query.alpha = 0.05 * static_cast<double>(core_rng_.NextUint64(4));
  return query;
}

ServeQuery QueryStream::NextUniform() {
  while (true) {
    std::vector<ItemId> ids;
    const size_t len = 1 + item_rng_.NextUint64(4);
    for (size_t i = 0; i < len; ++i) {
      ids.push_back(items_[item_rng_.NextUint64(items_.size())]);
    }
    ServeQuery query;
    query.items = Itemset(std::move(ids));
    const uint64_t bucket = item_rng_.NextUint64(4);
    query.alpha = 0.075 * static_cast<double>(bucket);
    std::string key =
        StrFormat("%llu;", static_cast<unsigned long long>(bucket));
    for (ItemId id : query.items.items()) key += StrFormat("%u,", id);
    if (seen_.insert(std::move(key)).second) return query;
  }
}

NetworkUpdate MakeUpdateBatch(Rng& rng, size_t num_vertices,
                              size_t num_items) {
  NetworkUpdate u;
  for (int i = 0; i < 3; ++i) {
    NetworkUpdate::TxInsert tx;
    tx.vertex = static_cast<VertexId>(rng.NextUint64(num_vertices));
    std::vector<ItemId> ids;
    const size_t len = 1 + rng.NextUint64(3);
    for (size_t k = 0; k < len; ++k) {
      ids.push_back(static_cast<ItemId>(rng.NextUint64(num_items)));
    }
    tx.items = Itemset(std::move(ids));
    u.transactions.push_back(std::move(tx));
  }
  const auto a = static_cast<VertexId>(rng.NextUint64(num_vertices));
  auto b = static_cast<VertexId>(rng.NextUint64(num_vertices - 1));
  if (b >= a) ++b;  // distinct endpoints: self-loops are rejected
  u.edges.push_back(MakeEdge(a, b));
  return u;
}

std::vector<int64_t> PoissonArrivals(Rng& rng, double rate, double seconds) {
  std::vector<int64_t> due;
  due.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = 0;
  while (true) {
    // Inverse-CDF exponential gap; 1 - U keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

}  // namespace tcf::e2e
