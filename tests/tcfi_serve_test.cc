// Serve-layer coverage of TCFI snapshots: a service opened over a
// mapped .tcfi file must answer byte-for-byte like one built in
// process, RELOAD must install the mapped file and refuse any other,
// sharded slice files must reproduce unsharded answers, and the watcher
// must probe-and-skip torn TCFI writes instead of attempting a load.
// A server with streaming updates on holds one copy of the index: the
// updater's baseline is the snapshot being served.
#include <gtest/gtest.h>
#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "core/tc_tree_update.h"
#include "core/tcfi_format.h"
#include "serve/file_watcher.h"
#include "serve/query_service.h"
#include "test_util.h"

namespace tcf {
namespace {

using testing::ExpectSameAnswer;
using testing::MakeRandomNetwork;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

DatabaseNetwork BuildNet(uint64_t seed) {
  return MakeRandomNetwork(
      {.num_vertices = 16, .num_items = 6, .tx_per_vertex = 7, .seed = seed});
}

std::vector<ServeQuery> GridQueries() {
  std::vector<ServeQuery> queries;
  for (double alpha : {0.0, 0.05, 0.12, 0.3}) {
    queries.push_back({Itemset({0}), alpha});
    queries.push_back({Itemset({1, 2}), alpha});
    queries.push_back({Itemset({0, 3, 5}), alpha});
    queries.push_back({Itemset({0, 1, 2, 3, 4, 5}), alpha});
  }
  return queries;
}

/// Polls `pred` for ~5 s (the watcher is asynchronous by design).
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(TcfiServeTest, OpenedMappedServiceMatchesOwnedService) {
  DatabaseNetwork net = BuildNet(61);
  TcTree tree = TcTree::Build(net);
  const std::string path = TempPath("tcfi_serve_open.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());

  QueryService owned(TcTree(tree), net.dictionary(), {});
  auto mapped = QueryService::Open(path, net.dictionary(), {});
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE((*mapped)->snapshot()->mapped());

  for (const ServeQuery& q : GridQueries()) {
    ExpectSameAnswer(*owned.Execute(q), *(*mapped)->Execute(q),
                     "alpha=" + std::to_string(q.alpha));
  }
}

TEST(TcfiServeTest, ReloadFromFileInstallsMappedSnapshot) {
  DatabaseNetwork net = BuildNet(62);
  TcTree full = TcTree::Build(net);
  TcTree shallow = TcTree::Build(net, {.max_depth = 1});
  ASSERT_LT(shallow.num_nodes(), full.num_nodes());

  const std::string tcfi = TempPath("tcfi_serve_reload.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(shallow, tcfi).ok());

  QueryService service(TcTree(full), net.dictionary(), {});

  // Installs the mapped snapshot zero-copy.
  auto nodes = service.ReloadFromFile(tcfi);
  ASSERT_TRUE(nodes.ok()) << nodes.status();
  EXPECT_EQ(*nodes, shallow.num_nodes());
  ASSERT_TRUE(service.snapshot()->mapped());
  const ServeQuery probe{Itemset({0, 1}), 0.0};
  ExpectSameAnswer(*service.Execute(probe),
                   QueryTcTree(shallow, probe.items, probe.alpha),
                   "after tcfi reload");

  // A torn file and a file in another format (any other magic) are
  // refused, and the live snapshot stays.
  const std::string torn = TempPath("tcfi_serve_reload_torn.tcfi");
  {
    std::ofstream out(torn, std::ios::binary);
    out << "TCFI but torn";
  }
  EXPECT_TRUE(service.ReloadFromFile(torn).status().IsCorruption());
  const std::string foreign = TempPath("tcfi_serve_reload_foreign.idx");
  {
    std::ofstream out(foreign, std::ios::binary);
    out << "XXXX" << std::string(sizeof(TcfiHeader), '\x01');
  }
  const Status refused = service.ReloadFromFile(foreign).status();
  EXPECT_TRUE(refused.IsCorruption()) << refused;
  EXPECT_NE(refused.message().find("tcf index"), std::string::npos)
      << refused;
  EXPECT_EQ(service.snapshot()->num_nodes(), shallow.num_nodes());
  ASSERT_TRUE(service.snapshot()->mapped());
}

TEST(TcfiServeTest, OpenMapsSliceFilesAndMatchesUnshardedService) {
  const size_t kShards = 3;
  DatabaseNetwork net = BuildNet(63);
  TcTree tree = TcTree::Build(net);
  const std::string base = TempPath("tcfi_serve_slices.tcfi");
  ASSERT_TRUE(SaveTcfiShardSlices(TcTree(tree), base, kShards).ok());

  QueryService unsharded(TcTree(tree), net.dictionary(), {});
  auto sharded = QueryService::Open(base, net.dictionary(),
                                    {.num_shards = kShards});
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_EQ((*sharded)->num_shards(), kShards);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE((*sharded)->snapshot(s)->mapped()) << "shard " << s;
  }

  for (const ServeQuery& q : GridQueries()) {
    ExpectSameAnswer(*unsharded.Execute(q), *(*sharded)->Execute(q),
                     "alpha=" + std::to_string(q.alpha));
  }

  // A shard-count mismatch is rejected, not mis-routed: there are no
  // 2-slice files and no whole file at `base`.
  EXPECT_FALSE(
      QueryService::Open(base, net.dictionary(), {.num_shards = 2}).ok());
  // A slice whose metadata names another shard fails the whole open.
  std::filesystem::copy_file(
      TcfiSlicePath(base, 2, kShards), TcfiSlicePath(base, 1, kShards),
      std::filesystem::copy_options::overwrite_existing);
  const Status mixed =
      QueryService::Open(base, net.dictionary(), {.num_shards = kShards})
          .status();
  EXPECT_TRUE(mixed.IsCorruption()) << mixed;
}

TEST(TcfiServeTest, ShardedReloadPrefersSliceFiles) {
  const size_t kShards = 3;
  DatabaseNetwork net = BuildNet(64);
  TcTree full = TcTree::Build(net);
  TcTree shallow = TcTree::Build(net, {.max_depth = 1});

  QueryService service(TcTree(full), net.dictionary(),
                       {.num_shards = kShards});

  // All N slice files present: rolling zero-copy per-shard swap.
  const std::string base = TempPath("tcfi_serve_roll.tcfi");
  ASSERT_TRUE(SaveTcfiShardSlices(TcTree(shallow), base, kShards).ok());
  auto nodes = service.ReloadFromFile(base);
  ASSERT_TRUE(nodes.ok()) << nodes.status();
  EXPECT_EQ(*nodes, shallow.num_nodes());
  const ServeQuery probe{Itemset({0, 1, 2}), 0.0};
  ExpectSameAnswer(*service.Execute(probe),
                   QueryTcTree(shallow, probe.items, probe.alpha),
                   "after slice reload");

  // No slices at this path: fall back to the whole-file reload
  // (materialize + partition + rolling swap).
  const std::string whole = TempPath("tcfi_serve_whole.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(full, whole).ok());
  nodes = service.ReloadFromFile(whole);
  ASSERT_TRUE(nodes.ok()) << nodes.status();
  EXPECT_EQ(*nodes, full.num_nodes());
  ExpectSameAnswer(*service.Execute(probe),
                   QueryTcTree(full, probe.items, probe.alpha),
                   "after whole-file reload");
}

TEST(TcfiServeTest, WatcherSkipsTornTcfiViaHeaderProbe) {
  DatabaseNetwork net = BuildNet(65);
  TcTree tree = TcTree::Build(net);
  const std::string path = TempPath("tcfi_serve_watch.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());
  const std::string good = [&] {
    std::ifstream f(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  }();

  QueryService service(TcTree(tree), net.dictionary(), {});
  FileWatcherOptions options;
  options.path = path;
  options.poll_ms = 5;
  FileWatcher watcher(service, options);
  ASSERT_TRUE(watcher.Start().ok());

  // Each version lands by rename from a sibling temp file, so the 5 ms
  // poller sees exactly the bytes each step writes.
  const auto replace = [&path](std::string_view bytes) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  };

  // A torn TCFI write (magic present, body incomplete): the header
  // probe rejects it without a load attempt — counted as skipped, not
  // as a failure — and the old snapshot keeps serving.
  replace(std::string_view(good).substr(0, good.size() / 2));
  ASSERT_TRUE(WaitFor([&] { return watcher.skipped() >= 1; }));
  EXPECT_EQ(watcher.reloads(), 0u);
  EXPECT_EQ(watcher.failures(), 0u);
  EXPECT_EQ(service.snapshot()->num_nodes(), tree.num_nodes());

  // The writer finishes: the watcher swaps the mapped snapshot in.
  replace(good);
  ASSERT_TRUE(WaitFor([&] { return watcher.reloads() >= 1; }));
  ASSERT_TRUE(WaitFor([&] { return service.snapshot()->mapped(); }));
  const ServeQuery probe{Itemset({0}), 0.05};
  ExpectSameAnswer(*service.Execute(probe),
                   QueryTcTree(tree, probe.items, probe.alpha),
                   "after finished write");
  watcher.Stop();
}

/// Bytes the main arena has handed out, heap chunks and mmapped ones.
/// Reads 0 without glibc's mallinfo2, and under a sanitizer, whose
/// allocator glibc does not see.
size_t AllocatedBytes() {
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

// `tcf serve` with updates on, unsharded: the service maps the index and
// the updater's baseline is the service's own snapshot. The two hold
// the same object before and after an UPDATE, and starting the updater
// allocates next to nothing against materializing the tree.
TEST(TcfiServeTest, UpdaterSharesTheServedSnapshot) {
  const auto make_net = [] {
    return MakeRandomNetwork({.num_vertices = 40,
                              .edge_prob = 0.3,
                              .num_items = 10,
                              .tx_per_vertex = 8,
                              .seed = 66});
  };
  DatabaseNetwork net = make_net();
  const std::string path = TempPath("tcfi_serve_one_copy.tcfi");
  ASSERT_TRUE(SaveTcTreeBinary(TcTree::Build(net), path).ok());
  auto opened = QueryService::Open(path, net.dictionary(), {});
  ASSERT_TRUE(opened.ok()) << opened.status();
  QueryService& service = **opened;
  ASSERT_TRUE(service.snapshot()->mapped());

  size_t materialized = 0;
  {
    const size_t before = AllocatedBytes();
    const TcTree copy = MaterializeTcTree(*service.snapshot()->mapped_tree());
    materialized = AllocatedBytes() - before;
    ASSERT_GT(copy.num_nodes(), 0u);
  }

  const size_t before = AllocatedBytes();
  IndexUpdater updater(
      std::move(net), service.snapshot(),
      [&service](std::shared_ptr<const TcTreeSnapshot> snap,
                 const std::vector<ItemId>& changed_roots,
                 const std::vector<ItemId>& dirty_items) {
        return service.ApplyUpdatedSnapshot(std::move(snap), changed_roots,
                                            dirty_items);
      });
  const size_t started = AllocatedBytes() - before;
  if (materialized > 0) {  // the allocator reports its footprint
    EXPECT_LT(started * 20, materialized)
        << "starting the updater allocated " << started << " bytes; "
        << "materializing the index allocates " << materialized;
  }
  EXPECT_EQ(updater.snapshot().get(), service.snapshot().get());

  NetworkUpdate update;
  update.transactions.push_back({.vertex = 0, .items = Itemset({0, 1})});
  update.edges.push_back(MakeEdge(1, 2));
  DatabaseNetwork oracle_net = make_net();
  ASSERT_TRUE(oracle_net.AddTransaction(0, Itemset({0, 1})).ok());
  ASSERT_TRUE(oracle_net.AddEdge(1, 2).ok());
  ASSERT_TRUE(updater.Apply(std::move(update)).ok());
  EXPECT_EQ(updater.snapshot().get(), service.snapshot().get());
  EXPECT_FALSE(service.snapshot()->mapped());

  const TcTree oracle = TcTree::Build(oracle_net);
  for (const ServeQuery& q : GridQueries()) {
    ExpectSameAnswer(QueryTcTree(oracle, q.items, q.alpha), *service.Execute(q),
                     "after update, alpha=" + std::to_string(q.alpha));
  }
}

}  // namespace
}  // namespace tcf
