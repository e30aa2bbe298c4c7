#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "pattern/dfs_code.h"
#include "spider_test_util.h"
#include "spidermine/session.h"
#include "support/support_measure.h"

/// End-to-end determinism of the parallel pipeline: the mined pattern set,
/// supports and ordering must be byte-identical for any thread count with
/// the same rng_seed. Every cross-thread fold in the pipeline happens on
/// the coordinating thread in a stable order, so these tests protect the
/// core contract of the parallel refactor.

namespace spidermine {
namespace {

/// Canonical transcript of a mine result (shared spider_test_util format).
std::string Transcript(const QueryResult& result) {
  return PatternsTranscript(result.patterns);
}

LabeledGraph ErGraphWithInjection(uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder = GenerateErdosRenyi(200, 2.2, 14, &rng);
  Pattern planted = RandomConnectedPattern(10, 0.15, 14, &rng);
  PatternInjector injector(&builder);
  EXPECT_TRUE(injector.Inject(planted, 3, &rng).ok());
  return std::move(builder.Build()).value();
}

LabeledGraph ScaleFreeGraphWithInjection(uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder = GenerateBarabasiAlbert(200, 2, 12, &rng);
  Pattern planted = RandomConnectedPattern(8, 0.2, 12, &rng);
  PatternInjector injector(&builder);
  EXPECT_TRUE(injector.Inject(planted, 3, &rng).ok());
  return std::move(builder.Build()).value();
}

SessionConfig BaseConfig() {
  SessionConfig config;
  config.min_support = 3;
  return config;
}

/// Small caps keep each MineOnce run to well under a second while still
/// exercising every parallel stage (shards, seeding, lineages, merges,
/// closure); determinism is about folds, not workload size.
TopKQuery BaseQuery() {
  TopKQuery query;
  query.k = 10;
  query.dmax = 4;
  query.vmin = 8;
  query.rng_seed = 7;
  query.seed_count_override = 12;
  query.max_patterns_per_round = 600;
  query.max_embeddings_per_pattern = 1000;
  return query;
}

void ExpectIdenticalAcrossThreadCounts(const LabeledGraph& g,
                                       SessionConfig config,
                                       const TopKQuery& query) {
  config.num_threads = 1;
  Result<QueryResult> serial = MineOnce(&g, config, query);
  ASSERT_TRUE(serial.ok()) << serial.status();
  const std::string reference = Transcript(*serial);
  EXPECT_FALSE(serial->patterns.empty());
  // The workload must exercise the parallel stages, not vacuously agree.
  EXPECT_GT(serial->stats.num_spiders, 0);
  EXPECT_GT(serial->stats.growth_steps, 0);
  for (int32_t threads : {2, 8}) {
    config.num_threads = threads;
    Result<QueryResult> parallel = MineOnce(&g, config, query);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(Transcript(*parallel), reference)
        << "results diverged at num_threads=" << threads;
    // Work counters fold in input order, so they must match too.
    EXPECT_EQ(parallel->stats.growth_steps, serial->stats.growth_steps);
    EXPECT_EQ(parallel->stats.extend_calls, serial->stats.extend_calls);
    EXPECT_EQ(parallel->stats.merges, serial->stats.merges);
    EXPECT_EQ(parallel->stats.num_spiders, serial->stats.num_spiders);
  }
}

TEST(ParallelDeterminismTest, ErdosRenyiTopKIdenticalAtAnyThreadCount) {
  LabeledGraph g = ErGraphWithInjection(101);
  ExpectIdenticalAcrossThreadCounts(g, BaseConfig(), BaseQuery());
}

TEST(ParallelDeterminismTest, ScaleFreeTopKIdenticalAtAnyThreadCount) {
  LabeledGraph g = ScaleFreeGraphWithInjection(202);
  SessionConfig config = BaseConfig();
  TopKQuery query = BaseQuery();
  query.dmax = 4;
  ExpectIdenticalAcrossThreadCounts(g, config, query);
}

TEST(ParallelDeterminismTest, RestartsUseIndependentSubstreams) {
  LabeledGraph g = ErGraphWithInjection(303);
  SessionConfig config = BaseConfig();
  TopKQuery query = BaseQuery();
  query.restarts = 3;
  query.seed_count_override = 4;
  ExpectIdenticalAcrossThreadCounts(g, config, query);
}

TEST(ParallelDeterminismTest, ShardGrainAndThreadsMatrixIdentical) {
  // Shard-grain invariance: the transcript must be byte-identical across
  // {1, 2, 8} threads x {tiny, default, huge} Stage I vertex-range grains.
  LabeledGraph g = ErGraphWithInjection(606);
  SessionConfig config = BaseConfig();
  TopKQuery query = BaseQuery();
  config.num_threads = 1;
  config.stage1_shard_grain = 0;
  Result<QueryResult> reference = MineOnce(&g, config, query);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string expected = Transcript(*reference);
  EXPECT_FALSE(reference->patterns.empty());
  for (int32_t threads : {1, 2, 8}) {
    for (int64_t grain : {int64_t{3}, int64_t{0}, int64_t{1} << 20}) {
      config.num_threads = threads;
      config.stage1_shard_grain = grain;
      Result<QueryResult> run = MineOnce(&g, config, query);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(Transcript(*run), expected)
          << "diverged at threads=" << threads << " grain=" << grain;
      EXPECT_EQ(run->stats.num_spiders, reference->stats.num_spiders);
      EXPECT_EQ(run->stats.stage1_steps, reference->stats.stage1_steps);
      EXPECT_EQ(run->stats.growth_steps, reference->stats.growth_steps);
    }
  }
}

TEST(ParallelDeterminismTest, GlobalSpiderBudgetIsGrainAndThreadInvariant) {
  // With max_spiders set, the admitted prefix (and hence everything
  // downstream) must not depend on threads or grain either.
  LabeledGraph g = ScaleFreeGraphWithInjection(707);
  SessionConfig config = BaseConfig();
  TopKQuery query = BaseQuery();
  config.max_spiders = 40;
  config.num_threads = 1;
  Result<QueryResult> reference = MineOnce(&g, config, query);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->stats.num_spiders, 40);
  const std::string expected = Transcript(*reference);
  for (int32_t threads : {2, 8}) {
    for (int64_t grain : {int64_t{5}, int64_t{0}}) {
      config.num_threads = threads;
      config.stage1_shard_grain = grain;
      Result<QueryResult> run = MineOnce(&g, config, query);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(Transcript(*run), expected)
          << "budgeted run diverged at threads=" << threads
          << " grain=" << grain;
    }
  }
}

TEST(ParallelDeterminismTest, CheckMergePairPassIdenticalUnderMergePressure) {
  // The CheckMerge pass schedules individual pattern PAIRS on the pool (one
  // hot anchor bucket no longer serializes it). Crank up merge pressure —
  // many seeds, a generous pair cap, several planted copies sharing
  // structure — and require the transcript AND the pair-level work counters
  // to be byte-identical across thread counts.
  Rng rng(4242);
  GraphBuilder builder = GenerateErdosRenyi(220, 2.0, 10, &rng);
  Pattern planted = RandomConnectedPattern(12, 0.15, 10, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 4, &rng).ok());
  LabeledGraph g = std::move(builder.Build()).value();

  SessionConfig config = BaseConfig();
  TopKQuery query = BaseQuery();
  query.seed_count_override = 24;
  query.max_merge_pairs_per_key = 32;
  config.num_threads = 1;
  Result<QueryResult> serial = MineOnce(&g, config, query);
  ASSERT_TRUE(serial.ok()) << serial.status();
  // Vacuous without real merge work.
  EXPECT_GT(serial->stats.merges, 0);
  EXPECT_GT(serial->stats.merge_attempts, 1);
  const std::string reference = Transcript(*serial);
  for (int32_t threads : {2, 8}) {
    config.num_threads = threads;
    Result<QueryResult> parallel = MineOnce(&g, config, query);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(Transcript(*parallel), reference)
        << "merge-heavy run diverged at num_threads=" << threads;
    EXPECT_EQ(parallel->stats.merges, serial->stats.merges);
    EXPECT_EQ(parallel->stats.merge_attempts, serial->stats.merge_attempts);
    EXPECT_EQ(parallel->stats.iso.run, serial->stats.iso.run);
  }
}

TEST(ParallelDeterminismTest, EveryMeasureIdenticalAcrossThreads) {
  // Every support measure must honour the same determinism contract: for a
  // fixed seed the transcript is byte-identical across thread counts,
  // closure's E[P] searches included. The transaction measure additionally
  // runs with a per-run sample, whose RNG substream must not depend on
  // threading either.
  LabeledGraph g = ErGraphWithInjection(1111);
  VertexTxnMap txn_map;
  txn_map.num_transactions = 8;
  txn_map.offsets.assign(static_cast<size_t>(g.NumVertices()) + 1, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    txn_map.txn_ids.push_back(static_cast<int32_t>(v % 8));
    txn_map.offsets[static_cast<size_t>(v) + 1] = v + 1;
  }

  for (SupportMeasureKind measure :
       {SupportMeasureKind::kGreedyMisVertex, SupportMeasureKind::kGreedyMisEdge,
        SupportMeasureKind::kMinImage, SupportMeasureKind::kEmbeddingCount,
        SupportMeasureKind::kHomomorphism, SupportMeasureKind::kTransaction}) {
    SessionConfig config = BaseConfig();
    TopKQuery query = BaseQuery();
    query.support_measure = measure;
    if (measure == SupportMeasureKind::kTransaction) {
      config.txn_map = &txn_map;
      query.txn_sample = 5;  // a genuine sample: 5 of 8 transactions
    }
    config.num_threads = 1;
    Result<QueryResult> reference = MineOnce(&g, config, query);
    ASSERT_TRUE(reference.ok())
        << SupportMeasureName(measure) << ": " << reference.status();
    EXPECT_FALSE(reference->patterns.empty()) << SupportMeasureName(measure);
    const std::string expected = Transcript(*reference);
    config.num_threads = 8;
    Result<QueryResult> run = MineOnce(&g, config, query);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(Transcript(*run), expected)
        << SupportMeasureName(measure) << " diverged at threads=8";
  }
}

TEST(ParallelDeterminismTest, CallerProvidedPoolReusedAcrossMines) {
  // One externally owned pool serves several MineOnce calls (the
  // bench-sweep / restart reuse path) and produces the same transcript as
  // per-call pool construction.
  LabeledGraph g = ErGraphWithInjection(808);
  SessionConfig config = BaseConfig();
  TopKQuery query = BaseQuery();
  config.num_threads = 4;
  Result<QueryResult> owned = MineOnce(&g, config, query);
  ASSERT_TRUE(owned.ok());
  ThreadPool shared_pool(4);
  config.pool = &shared_pool;
  for (int run = 0; run < 3; ++run) {
    Result<QueryResult> result = MineOnce(&g, config, query);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(Transcript(*result), Transcript(*owned))
        << "shared-pool run " << run << " diverged";
  }
}

TEST(ParallelDeterminismTest, NegativeShardGrainRejected) {
  LabeledGraph g = ErGraphWithInjection(909);
  SessionConfig config = BaseConfig();
  TopKQuery query = BaseQuery();
  config.stage1_shard_grain = -7;
  EXPECT_FALSE(MineOnce(&g, config, query).ok());
}

TEST(ParallelDeterminismTest, ZeroThreadsMeansHardwareDefault) {
  LabeledGraph g = ErGraphWithInjection(404);
  SessionConfig config = BaseConfig();
  TopKQuery query = BaseQuery();
  config.num_threads = 1;
  Result<QueryResult> serial = MineOnce(&g, config, query);
  ASSERT_TRUE(serial.ok());
  config.num_threads = 0;  // all cores
  Result<QueryResult> parallel = MineOnce(&g, config, query);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Transcript(*parallel), Transcript(*serial));
}

TEST(ParallelDeterminismTest, NegativeThreadCountRejected) {
  LabeledGraph g = ErGraphWithInjection(505);
  SessionConfig config = BaseConfig();
  TopKQuery query = BaseQuery();
  config.num_threads = -2;
  EXPECT_FALSE(MineOnce(&g, config, query).ok());
}

}  // namespace
}  // namespace spidermine
