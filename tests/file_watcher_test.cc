#include "serve/file_watcher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "core/tcfi_format.h"
#include "serve/query_service.h"
#include "test_util.h"

namespace tcf {
namespace {

using testing::ExpectSameAnswer;
using testing::MakeFigureOneNetwork;

/// Polls `pred` for ~5 s (the watcher is asynchronous by design).
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(FileWatcherTest, SwapsInEachNewVersionOnWrite) {
  // A multi-item network so the depth cap actually removes nodes.
  DatabaseNetwork net = testing::MakeRandomNetwork(
      {.num_vertices = 14, .edge_prob = 0.5, .num_items = 4, .seed = 7});
  TcTree full = TcTree::Build(net);
  TcTree shallow = TcTree::Build(net, {.max_depth = 1});
  ASSERT_LT(shallow.num_nodes(), full.num_nodes());

  const std::string path = ::testing::TempDir() + "/file_watcher_swap.idx";
  ASSERT_TRUE(SaveTcTreeBinary(full, path).ok());

  QueryService service(full, net.dictionary(), {});
  FileWatcherOptions options;
  options.path = path;
  options.poll_ms = 5;
  FileWatcher watcher(service, options);
  ASSERT_TRUE(watcher.Start().ok());

  // The version present at Start() is the baseline — no spurious reload.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(watcher.reloads(), 0u);

  // A writer replaces the artifact; the watcher swaps it in and counts
  // it as a reload (same path as the wire RELOAD verb).
  ASSERT_TRUE(SaveTcTreeBinary(shallow, path).ok());
  ASSERT_TRUE(WaitFor([&] { return watcher.reloads() >= 1; }));
  ASSERT_TRUE(WaitFor([&] { return service.Report().reloads >= 1; }));

  // Served answers now come from the shallow tree: the depth-capped
  // index has no depth-2 pattern for {i0, i1}.
  const ServeQuery query{Itemset{0, 1}, 0.0};
  ExpectSameAnswer(QueryTcTree(shallow, query.items, 0.0),
                   *service.Execute(query), "after the shallow swap");

  // Roll forward again: the full tree returns.
  ASSERT_TRUE(SaveTcTreeBinary(full, path).ok());
  ASSERT_TRUE(WaitFor([&] { return watcher.reloads() >= 2; }));
  ExpectSameAnswer(QueryTcTree(full, query.items, 0.0),
                   *service.Execute(query), "after rolling forward");

  watcher.Stop();
  watcher.Stop();  // idempotent
}

TEST(FileWatcherTest, HalfWrittenFileIsRetriedNotServed) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  const std::string path = ::testing::TempDir() + "/file_watcher_torn.idx";
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());
  std::string corrupt;
  {
    std::ifstream in(path, std::ios::binary);
    corrupt.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }

  QueryService service(tree, net.dictionary(), {});
  FileWatcherOptions options;
  options.path = path;
  options.poll_ms = 5;
  FileWatcher watcher(service, options);
  ASSERT_TRUE(watcher.Start().ok());

  // A full-size file whose body is damaged: one flipped payload byte
  // past the header. The header probe passes (its checksum and the file
  // size are intact) but the section checksum fails at map time, so the
  // watcher counts a failure, and the old snapshot keeps serving. The
  // file lands by rename, so the poller never sees it half-written.
  ASSERT_GT(corrupt.size(), sizeof(TcfiHeader));
  corrupt[sizeof(TcfiHeader)] ^= 0x01;
  {
    const std::string tmp = path + ".tmp";
    std::ofstream(tmp, std::ios::binary | std::ios::trunc) << corrupt;
    ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  }
  ASSERT_TRUE(WaitFor([&] { return watcher.failures() >= 1; }));
  EXPECT_EQ(watcher.skipped(), 0u);
  EXPECT_EQ(watcher.reloads(), 0u);
  const ServeQuery query{Itemset{0}, 0.1};
  const auto still = service.Execute(query);
  const TcTreeQueryResult oracle = QueryTcTree(tree, query.items, 0.1);
  EXPECT_EQ(still->trusses.size(), oracle.trusses.size());

  // The writer finishes (a valid file lands): the retry succeeds.
  ASSERT_TRUE(SaveTcTreeBinary(tree, path).ok());
  ASSERT_TRUE(WaitFor([&] { return watcher.reloads() >= 1; }));

  watcher.Stop();
}

TEST(FileWatcherTest, StartRejectsEmptyPathAndDoubleStart) {
  DatabaseNetwork net = MakeFigureOneNetwork();
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});

  FileWatcher empty(service, {});
  EXPECT_TRUE(empty.Start().IsInvalidArgument());

  FileWatcherOptions options;
  options.path = ::testing::TempDir() + "/file_watcher_double.idx";
  options.poll_ms = 5;
  FileWatcher watcher(service, options);
  ASSERT_TRUE(watcher.Start().ok());
  EXPECT_TRUE(watcher.Start().IsInvalidArgument());
  watcher.Stop();
}

}  // namespace
}  // namespace tcf
