#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/timer.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "spidermine/session.h"

namespace spidermine {
namespace {

/// A low-label-diversity graph: the stress case where embedding lists and
/// growth branching explode (DBLP-like: 4 labels).
LabeledGraph DenseLowDiversityGraph(int64_t n, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder = GenerateErdosRenyi(n, 4.0, 4, &rng);
  return std::move(builder.Build()).value();
}

TEST(MinerBudgetTest, TimeBudgetIsRespectedWithinSingleRounds) {
  LabeledGraph g = DenseLowDiversityGraph(1500, 5);
  SessionConfig config;
  TopKQuery query;
  config.min_support = 4;
  query.k = 5;
  query.dmax = 8;
  query.vmin = 150;
  query.rng_seed = 3;
  query.time_budget_seconds = 3.0;
  WallTimer timer;
  Result<QueryResult> result = MineOnce(&g, config, query);
  double elapsed = timer.ElapsedSeconds();
  ASSERT_TRUE(result.ok());
  // The budget is polled inside rounds; allow slack for Stage I and for
  // finishing the current extension.
  EXPECT_LT(elapsed, 20.0) << "budget must bound even one heavy round";
  EXPECT_TRUE(result->stats.timed_out ||
              result->stats.total_seconds < query.time_budget_seconds + 1);
}

TEST(MinerBudgetTest, TruncatedRunStillReturnsPatterns) {
  LabeledGraph g = DenseLowDiversityGraph(800, 7);
  SessionConfig config;
  TopKQuery query;
  config.min_support = 4;
  query.k = 5;
  query.dmax = 6;
  query.vmin = 80;
  query.rng_seed = 3;
  query.time_budget_seconds = 5.0;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok());
  // With 4 labels on a dense background, frequent structures abound: the
  // miner must surface some even when the budget truncates Stage II/III
  // (the prune-unmerged fallback).
  EXPECT_FALSE(result->patterns.empty());
  for (const MinedPattern& p : result->patterns) {
    EXPECT_GE(p.support, config.min_support);
  }
}

TEST(MinerBudgetTest, PatternCapsAreReported) {
  LabeledGraph g = DenseLowDiversityGraph(600, 11);
  SessionConfig config;
  TopKQuery query;
  config.min_support = 3;
  query.k = 5;
  query.dmax = 6;
  query.vmin = 60;
  query.rng_seed = 3;
  query.max_patterns_per_round = 50;  // absurdly small: must trip
  query.time_budget_seconds = 20.0;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.pattern_cap_hits, 0);
}

TEST(MinerBudgetTest, EmbeddingCapIsReported) {
  LabeledGraph g = DenseLowDiversityGraph(600, 13);
  SessionConfig config;
  TopKQuery query;
  config.min_support = 3;
  query.k = 3;
  query.dmax = 4;
  query.vmin = 60;
  query.rng_seed = 3;
  query.max_embeddings_per_pattern = 16;  // tiny: must trip on 4 labels
  // The cap trips within the first rounds; a short budget is enough.
  query.time_budget_seconds = 2.0;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.embedding_cap_hits, 0);
}

}  // namespace
}  // namespace spidermine

namespace spidermine {
namespace {

// Definition 2 asks for diam(P) <= Dmax on returned patterns; Stage III
// growth can exceed it (the paper's own recovered patterns exceed the
// injected sizes). The strict filter enforces the definition on demand.
TEST(DmaxEnforcementTest, FilterDropsOverDiameterResults) {
  Rng rng(4242);
  GraphBuilder builder = GenerateErdosRenyi(150, 1.8, 10, &rng);
  Pattern planted = RandomPatternWithDiameter(10, 6, 10, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 3, &rng).ok());
  LabeledGraph g = std::move(builder.Build()).value();

  SessionConfig config;
  TopKQuery query;
  config.min_support = 2;
  query.k = 10;
  query.dmax = 4;
  query.vmin = 10;
  query.rng_seed = 9;

  query.enforce_dmax_on_results = true;
  Result<QueryResult> strict = MineOnce(&g, config, query);
  ASSERT_TRUE(strict.ok());
  for (const MinedPattern& p : strict->patterns) {
    EXPECT_LE(p.pattern.Diameter(), query.dmax);
  }

  query.enforce_dmax_on_results = false;
  Result<QueryResult> loose = MineOnce(&g, config, query);
  ASSERT_TRUE(loose.ok());
  EXPECT_GE(loose->patterns.size(), strict->patterns.size());
}

}  // namespace
}  // namespace spidermine
