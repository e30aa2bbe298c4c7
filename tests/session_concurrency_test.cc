#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "spider_test_util.h"
#include "spidermine/session.h"

/// The concurrent-serving contract (docs/SERVING.md): RunQuery is const
/// and thread-safe, so N threads firing M queries at one session produce
/// results byte-identical to the same queries run serially — concurrency
/// moves wall-clock interleaving, never output — and every successful
/// query lands exactly once in the mutex-guarded serving aggregate. Run
/// under TSan in CI (the debug-tsan job), where any data race in the
/// query path is a hard failure.

namespace spidermine {
namespace {

LabeledGraph TestGraph(uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder = GenerateErdosRenyi(200, 2.0, 14, &rng);
  Pattern planted = RandomConnectedPattern(10, 0.15, 14, &rng);
  PatternInjector injector(&builder);
  EXPECT_TRUE(injector.Inject(planted, 3, &rng).ok());
  return std::move(builder.Build()).value();
}

SessionConfig BaseSessionConfig(int32_t threads) {
  SessionConfig config;
  config.min_support = 3;
  config.num_threads = threads;
  return config;
}

TopKQuery BaseQuery(uint64_t rng_seed) {
  TopKQuery query;
  query.k = 8;
  query.dmax = 4;
  query.vmin = 8;
  query.rng_seed = rng_seed;
  query.seed_count_override = 10;
  return query;
}

TEST(SessionConcurrencyTest, ConcurrentQueriesMatchSerialExecution) {
  LabeledGraph g = TestGraph(11);
  // The session pool has 2 workers shared by every in-flight query: the
  // contended configuration (queries outnumber workers) that the per-call
  // ThreadPool chunk counts must keep independent.
  Result<MiningSession> session = MiningSession::Create(&g, BaseSessionConfig(2));
  ASSERT_TRUE(session.ok()) << session.status();

  const std::vector<uint64_t> seeds = {3, 5, 7, 1234};

  // Reference: the same queries, serialized on the same session.
  std::map<uint64_t, std::string> serial;
  for (uint64_t seed : seeds) {
    Result<QueryResult> result = session->RunQuery(BaseQuery(seed));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->patterns.empty());
    serial[seed] = PatternsTranscript(result->patterns);
  }

  // 4 threads x 4 queries, all in flight together, repeated so each
  // thread also exercises back-to-back queries.
  constexpr int kThreads = 4;
  constexpr int kRounds = 2;
  std::vector<std::vector<std::string>> transcripts(
      kThreads, std::vector<std::string>(seeds.size() * kRounds));
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t s = 0; s < seeds.size(); ++s) {
          Result<QueryResult> result =
              session->RunQuery(BaseQuery(seeds[s]));
          ASSERT_TRUE(result.ok()) << result.status();
          transcripts[static_cast<size_t>(t)][round * seeds.size() + s] =
              PatternsTranscript(result->patterns);
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      for (size_t s = 0; s < seeds.size(); ++s) {
        EXPECT_EQ(transcripts[static_cast<size_t>(t)]
                             [round * seeds.size() + s],
                  serial[seeds[s]])
            << "thread " << t << " round " << round << " seed " << seeds[s]
            << " diverged from the serialized run";
      }
    }
  }

  // Aggregate: the serial pass + every concurrent query, nothing lost to
  // racy increments.
  const int64_t expected =
      static_cast<int64_t>(seeds.size()) * (1 + kThreads * kRounds);
  EXPECT_EQ(session->queries_run(), expected);
  SessionServingStats stats = session->serving_stats();
  EXPECT_EQ(stats.queries_run, expected);
  EXPECT_GT(stats.patterns_returned, 0);
  EXPECT_GT(stats.query_totals.total_seconds, 0.0);
  EXPECT_GE(stats.query_totals.total_seconds, stats.max_query_seconds);
  EXPECT_EQ(stats.timed_out_queries, 0);
}

TEST(SessionConcurrencyTest, ConcurrentBadQueriesIsolateFromGoodOnes) {
  LabeledGraph g = TestGraph(22);
  Result<MiningSession> session = MiningSession::Create(&g, BaseSessionConfig(2));
  ASSERT_TRUE(session.ok()) << session.status();

  Result<QueryResult> reference = session->RunQuery(BaseQuery(5));
  ASSERT_TRUE(reference.ok());
  const std::string expected = PatternsTranscript(reference->patterns);

  // Half the threads fire invalid queries (rejected via Result<>), half
  // fire the reference query; the bad ones must neither crash, count, nor
  // perturb the good ones.
  constexpr int kPairs = 3;
  std::vector<std::string> good(kPairs);
  std::vector<std::thread> callers;
  for (int t = 0; t < kPairs; ++t) {
    callers.emplace_back([&, t] {
      TopKQuery bad = BaseQuery(5);
      bad.min_support = 2;  // below the mined floor of 3
      EXPECT_FALSE(session->RunQuery(bad).ok());
      Result<QueryResult> result = session->RunQuery(BaseQuery(5));
      ASSERT_TRUE(result.ok()) << result.status();
      good[static_cast<size_t>(t)] = PatternsTranscript(result->patterns);
    });
  }
  for (std::thread& caller : callers) caller.join();

  for (int t = 0; t < kPairs; ++t) {
    EXPECT_EQ(good[static_cast<size_t>(t)], expected);
  }
  // Only the successful queries count: 1 reference + kPairs good ones.
  EXPECT_EQ(session->queries_run(), 1 + kPairs);
}

TEST(SessionConcurrencyTest, SessionsShareACallerProvidedPool) {
  // Two sessions on one borrowed pool, queried concurrently: the
  // per-call chunk counts must keep even cross-session parallel loops
  // independent (the bench/serving fleet configuration).
  LabeledGraph g1 = TestGraph(33);
  LabeledGraph g2 = TestGraph(44);
  ThreadPool pool(2);
  SessionConfig config = BaseSessionConfig(0);
  config.pool = &pool;
  Result<MiningSession> s1 = MiningSession::Create(&g1, config);
  Result<MiningSession> s2 = MiningSession::Create(&g2, config);
  ASSERT_TRUE(s1.ok()) << s1.status();
  ASSERT_TRUE(s2.ok()) << s2.status();

  std::string serial1 = PatternsTranscript(
      s1->RunQuery(BaseQuery(7)).value().patterns);
  std::string serial2 = PatternsTranscript(
      s2->RunQuery(BaseQuery(7)).value().patterns);

  std::string concurrent1, concurrent2;
  std::thread a([&] {
    concurrent1 =
        PatternsTranscript(s1->RunQuery(BaseQuery(7)).value().patterns);
  });
  std::thread b([&] {
    concurrent2 =
        PatternsTranscript(s2->RunQuery(BaseQuery(7)).value().patterns);
  });
  a.join();
  b.join();
  EXPECT_EQ(concurrent1, serial1);
  EXPECT_EQ(concurrent2, serial2);
}

}  // namespace
}  // namespace spidermine
