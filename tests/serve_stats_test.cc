#include "serve/serve_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/query_service.h"

// ServeReport is a fold of one MetricsRegistry: these tests record
// through QueryInstruments / ServeCounters (what the backends and the
// transport do) and read the view back. Counts, sums and means are
// exact; percentiles are interpolated from log2 buckets, so they are
// checked against the bucket that holds the true value.

namespace tcf {
namespace {

/// Every instrument a backend owns, over a registry of its own.
struct Fixture {
  MetricsRegistry registry;
  ItemDictionary dictionary;
  QueryServiceOptions options;
  QueryInstruments instruments{registry, options, dictionary};
  ServeQuery query;
};

/// True when `estimate` lies in the log2 bucket (2^(k-1), 2^k] holding
/// `truth`, bounds included.
bool InSameLog2Bucket(double estimate, double truth) {
  const double hi = std::exp2(std::ceil(std::log2(truth)));
  return estimate >= hi / 2 && estimate <= hi;
}

void ExpectOrderedPercentiles(const ServeReport& r) {
  EXPECT_LE(r.p50_us, r.p90_us);
  EXPECT_LE(r.p90_us, r.p99_us);
  EXPECT_LE(r.p99_us, r.max_us);
}

TEST(ServeStatsTest, ReportSummarizesLatencies) {
  Fixture f;
  // 1..100 µs: percentiles of a known distribution.
  for (int i = 1; i <= 100; ++i) {
    f.instruments.RecordAnswered(f.query, static_cast<double>(i),
                                 /*trusses=*/2, nullptr);
  }
  const ServeReport report = f.instruments.Report({});
  EXPECT_EQ(report.queries, 100u);
  EXPECT_EQ(report.trusses_returned, 200u);
  EXPECT_DOUBLE_EQ(report.mean_us, 50.5);
  EXPECT_TRUE(InSameLog2Bucket(report.p50_us, 50.0)) << report.p50_us;
  EXPECT_TRUE(InSameLog2Bucket(report.p90_us, 90.0)) << report.p90_us;
  EXPECT_TRUE(InSameLog2Bucket(report.p99_us, 99.0)) << report.p99_us;
  EXPECT_DOUBLE_EQ(report.max_us, 128.0);  // the top bucket's bound
  ExpectOrderedPercentiles(report);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.qps, 0.0);
}

TEST(ServeStatsTest, EmptyReportIsAllZero) {
  Fixture f;
  const ServeReport report = f.instruments.Report({});
  EXPECT_EQ(report.queries, 0u);
  EXPECT_EQ(report.trusses_returned, 0u);
  EXPECT_EQ(report.mean_us, 0.0);
  EXPECT_EQ(report.p50_us, 0.0);
  EXPECT_EQ(report.max_us, 0.0);
}

TEST(ServeStatsTest, SinceScopesAReportToOnePass) {
  Fixture f;
  ServeCounters counters(f.registry);  // what the transport holds
  counters.connections_accepted.Increment();
  f.instruments.RecordAnswered(f.query, 10.0, 1, nullptr);
  ResultCacheStats cache;
  cache.hits = 4;
  cache.entries = 7;
  const ServeReport before = f.instruments.Report(cache);

  f.instruments.RecordAnswered(f.query, 20.0, 3, nullptr);
  cache.hits = 5;
  cache.misses = 1;
  const ServeReport pass = f.instruments.Report(cache).Since(before);
  EXPECT_EQ(pass.queries, 1u);
  EXPECT_EQ(pass.trusses_returned, 3u);
  EXPECT_DOUBLE_EQ(pass.mean_us, 20.0);
  EXPECT_TRUE(InSameLog2Bucket(pass.p50_us, 20.0)) << pass.p50_us;
  EXPECT_DOUBLE_EQ(pass.max_us, 32.0);
  ExpectOrderedPercentiles(pass);
  EXPECT_GE(pass.wall_seconds, 0.0);
  // Cumulative cache counters become deltas; point-in-time ones and the
  // lifetime-of-server counters do not.
  EXPECT_EQ(pass.cache.hits, 1u);
  EXPECT_EQ(pass.cache.misses, 1u);
  EXPECT_EQ(pass.cache.entries, 7u);
  EXPECT_EQ(pass.connections_accepted, 1u);
}

TEST(ServeStatsTest, ConcurrentRecordingLosesNothing) {
  Fixture f;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&f] {
      for (int i = 0; i < 1000; ++i) {
        f.instruments.RecordAnswered(f.query, 1.0, 1, nullptr);
      }
    });
  }
  for (auto& th : threads) th.join();
  const ServeReport report = f.instruments.Report({});
  EXPECT_EQ(report.queries, 8000u);
  EXPECT_EQ(report.trusses_returned, 8000u);
}

TEST(ServeStatsTest, ExpiredQueriesStayOutOfTheLatencyView) {
  Fixture f;
  f.instruments.RecordExpired(f.query, nullptr);
  const ServeReport report = f.instruments.Report({});
  EXPECT_EQ(report.queries, 0u);
  EXPECT_EQ(report.deadline_exceeded, 1u);
}

TEST(ServeStatsTest, StatsAndMetricsReadTheSameInstruments) {
  Fixture f;
  ServeCounters counters(f.registry);
  f.instruments.RecordAnswered(f.query, 5.0, 4, nullptr);
  counters.batches.Increment();
  counters.batch_queries.Increment(6);
  counters.batch_max_depth.SetMax(6);
  counters.batch_max_depth.SetMax(2);
  const ServeReport report = f.instruments.Report({});
  EXPECT_EQ(report.batches, 1u);
  EXPECT_EQ(report.batch_queries, 6u);
  EXPECT_EQ(report.batch_max_depth, 6u);

  const std::string metrics = f.registry.Render();
  EXPECT_NE(metrics.find("\ntcf_trusses_returned_total 4\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("\ntcf_query_total_us_count 1\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("\ntcf_batches_total 1\n"), std::string::npos);
  // batch_max_depth is a STATS key without a METRICS family.
  EXPECT_EQ(metrics.find("batch_max_depth"), std::string::npos);
}

TEST(ServeStatsTest, ReportRendersCacheCounters) {
  Fixture f;
  f.instruments.RecordAnswered(f.query, 5.0, 1, nullptr);
  ResultCacheStats cache;
  cache.hits = 3;
  cache.misses = 1;
  const ServeReport report = f.instruments.Report(cache);
  EXPECT_DOUBLE_EQ(report.cache.HitRate(), 0.75);

  std::ostringstream os;
  report.ToTable().Print(os);
  EXPECT_NE(os.str().find("cache hit rate"), std::string::npos);
  EXPECT_NE(os.str().find("throughput"), std::string::npos);
}

}  // namespace
}  // namespace tcf
