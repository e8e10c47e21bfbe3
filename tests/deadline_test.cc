#include "util/deadline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/tc_tree.h"
#include "core/tc_tree_query.h"
#include "net/database_network.h"
#include "serve/query_backend.h"
#include "serve/query_service.h"
#include "test_util.h"

namespace tcf {
namespace {

using testing::MakeRandomNetwork;
using testing::RandomNetOptions;

TEST(DeadlineTest, DefaultIsUnbounded) {
  const Deadline d;
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.IsExpired());
}

TEST(DeadlineTest, ZeroMillisMeansUnbounded) {
  const Deadline d = Deadline::AfterMillis(0);
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.IsExpired());
}

TEST(DeadlineTest, ExpiredIsImmediatelyExpired) {
  const Deadline d = Deadline::Expired();
  EXPECT_TRUE(d.bounded());
  EXPECT_TRUE(d.IsExpired());
  EXPECT_EQ(d.RemainingMillis(), 0);
}

TEST(DeadlineTest, AfterMillisExpiresAfterTheBudget) {
  const Deadline d = Deadline::AfterMillis(10);
  EXPECT_TRUE(d.bounded());
  EXPECT_GT(d.RemainingMillis(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(d.IsExpired());
  EXPECT_EQ(d.RemainingMillis(), 0);
}

TEST(DeadlineTest, GenerousDeadlineLeavesWalkAnswerIntact) {
  DatabaseNetwork net = MakeRandomNetwork({});
  TcTree tree = TcTree::Build(net);
  const Itemset q({0, 1, 2, 3, 4});

  const TcTreeQueryResult plain = QueryTcTree(tree, q, 0.05);
  ASSERT_FALSE(plain.deadline_exceeded);

  TcTreeQueryOptions options;
  options.deadline = Deadline::AfterMillis(60000);
  const TcTreeQueryResult bounded = QueryTcTree(tree, q, 0.05, options);
  EXPECT_FALSE(bounded.deadline_exceeded);
  ASSERT_EQ(bounded.trusses.size(), plain.trusses.size());
  for (size_t i = 0; i < plain.trusses.size(); ++i) {
    EXPECT_EQ(bounded.trusses[i].pattern, plain.trusses[i].pattern);
    EXPECT_EQ(bounded.trusses[i].edges, plain.trusses[i].edges);
  }
  EXPECT_EQ(bounded.visited_nodes, plain.visited_nodes);
  EXPECT_EQ(bounded.retrieved_nodes, plain.retrieved_nodes);
  EXPECT_EQ(bounded.pruned_subtrees, plain.pruned_subtrees);
}

TEST(DeadlineTest, ExpiredDeadlineUnwindsWalkBeforeAnyVisit) {
  DatabaseNetwork net = MakeRandomNetwork({});
  TcTree tree = TcTree::Build(net);

  TcTreeQueryOptions options;
  options.deadline = Deadline::Expired();
  const TcTreeQueryResult r =
      QueryTcTree(tree, Itemset({0, 1, 2, 3, 4}), 0.05, options);
  EXPECT_TRUE(r.deadline_exceeded);
  // The pre-walk check fires before the first node: no partial trusses
  // leak out of an already-dead request.
  EXPECT_EQ(r.visited_nodes, 0u);
  EXPECT_TRUE(r.trusses.empty());
}

TEST(DeadlineTest, QueryServiceReportsAndCountsExpiry) {
  DatabaseNetwork net = MakeRandomNetwork({});
  TcTree tree = TcTree::Build(net);
  QueryService service(tree, net.dictionary(), {});

  ServeQuery query;
  query.items = Itemset({0, 1, 2});
  query.alpha = 0.05;
  query.deadline = Deadline::Expired();
  const auto dead = service.Execute(query);
  EXPECT_TRUE(dead->deadline_exceeded);
  EXPECT_EQ(service.Report().deadline_exceeded, 1u);

  // A partial result is never admitted to the cache: the same query
  // without a deadline walks cold and answers in full.
  query.deadline = Deadline();
  const auto alive = service.Execute(query);
  EXPECT_FALSE(alive->deadline_exceeded);
  EXPECT_FALSE(alive->trusses.empty());
  EXPECT_EQ(service.Report().cache.hits, 0u);
}

TEST(DeadlineTest, ShardedServiceReportsAndCountsExpiry) {
  RandomNetOptions o;
  o.num_vertices = 16;
  o.seed = 7;
  DatabaseNetwork net = MakeRandomNetwork(o);
  TcTree tree = TcTree::Build(net);
  QueryService service(std::move(tree), net.dictionary(), {.num_shards = 3});

  ServeQuery query;
  query.items = Itemset({0, 1, 2, 3});
  query.alpha = 0.05;
  query.deadline = Deadline::Expired();
  const auto dead = service.Execute(query);
  EXPECT_TRUE(dead->deadline_exceeded);
  EXPECT_EQ(service.Report().deadline_exceeded, 1u);

  query.deadline = Deadline::AfterMillis(60000);
  const auto alive = service.Execute(query);
  EXPECT_FALSE(alive->deadline_exceeded);
}

}  // namespace
}  // namespace tcf
