// Binary persistence of database networks (the TC-Tree index file is
// covered by tcfi_format_test and tcfi_corrupt_test).
#include <gtest/gtest.h>

#include <sstream>

#include "net/binary_io.h"
#include "net/stats.h"
#include "test_util.h"

namespace tcf {
namespace {

using testing::MakeRandomNetwork;

// ------------------------------------------------ binary network I/O --

TEST(BinaryIoTest, RoundTripRandomNetwork) {
  DatabaseNetwork net = MakeRandomNetwork({.num_vertices = 18, .seed = 7});
  std::stringstream ss;
  ASSERT_TRUE(SaveNetworkBinary(net, ss).ok());
  auto loaded = LoadNetworkBinary(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(net.graph().edges(), loaded->graph().edges());
  NetworkStats a = ComputeStats(net), b = ComputeStats(*loaded);
  EXPECT_EQ(a.num_transactions, b.num_transactions);
  EXPECT_EQ(a.num_items_total, b.num_items_total);
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    ASSERT_EQ(net.db(v).num_transactions(), loaded->db(v).num_transactions());
    for (Tid t = 0; t < net.db(v).num_transactions(); ++t) {
      EXPECT_EQ(net.db(v).transaction(t), loaded->db(v).transaction(t));
    }
  }
}

TEST(BinaryIoTest, PreservesItemNames) {
  GraphBuilder b(1);
  ItemDictionary dict;
  dict.GetOrAdd("data mining");
  dict.GetOrAdd("名前");  // non-ASCII survives (bytes, not text)
  std::vector<TransactionDb> dbs(1);
  dbs[0].Add(Itemset({0, 1}));
  DatabaseNetwork net(b.Build(), std::move(dbs), std::move(dict));
  std::stringstream ss;
  ASSERT_TRUE(SaveNetworkBinary(net, ss).ok());
  auto loaded = LoadNetworkBinary(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dictionary().Name(0), "data mining");
  EXPECT_EQ(loaded->dictionary().Name(1), "名前");
}

TEST(BinaryIoTest, RejectsBadMagic) {
  std::stringstream ss("NOTB____garbage");
  EXPECT_TRUE(LoadNetworkBinary(ss).status().IsCorruption());
}

TEST(BinaryIoTest, RejectsTruncation) {
  DatabaseNetwork net = MakeRandomNetwork({.seed = 8});
  std::stringstream ss;
  ASSERT_TRUE(SaveNetworkBinary(net, ss).ok());
  std::string full = ss.str();
  // Cut at several byte offsets; every prefix must fail cleanly.
  for (size_t cut : {5ul, 20ul, full.size() / 2, full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_FALSE(LoadNetworkBinary(truncated).ok()) << "cut=" << cut;
  }
}

TEST(BinaryIoTest, FileRoundTrip) {
  DatabaseNetwork net = MakeRandomNetwork({.seed = 9});
  const std::string path = ::testing::TempDir() + "/tcf_binary_io.bin";
  ASSERT_TRUE(SaveNetworkBinaryToFile(net, path).ok());
  auto loaded = LoadNetworkBinaryFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(net.graph().edges(), loaded->graph().edges());
}

TEST(BinaryIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadNetworkBinaryFromFile("/no/such/file.bin")
                  .status()
                  .IsIOError());
}

}  // namespace
}  // namespace tcf
