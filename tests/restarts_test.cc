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

TEST(RestartsTest, MultipleRunsAccumulateResults) {
  Rng rng(909);
  GraphBuilder builder = GenerateErdosRenyi(150, 2.0, 15, &rng);
  Pattern planted = RandomConnectedPattern(10, 0.1, 15, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 3, &rng).ok());
  LabeledGraph g = std::move(builder.Build()).value();

  SessionConfig config;
  TopKQuery query;
  config.min_support = 2;
  query.k = 10;
  query.dmax = 6;
  query.vmin = 10;
  query.rng_seed = 1;
  // Starve a single run of seeds so restarts visibly help.
  query.seed_count_override = 2;

  query.restarts = 1;
  Result<QueryResult> one = MineOnce(&g, config, query);
  query.restarts = 8;
  Result<QueryResult> many = MineOnce(&g, config, query);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(many.ok());
  // More runs can only widen the accumulated result set.
  EXPECT_GE(many->patterns.size(), one->patterns.size());
  EXPECT_GE(many->stats.stage2_iterations, one->stats.stage2_iterations);
  // The best pattern of the multi-run result is at least as large.
  int32_t best_one =
      one->patterns.empty() ? 0 : one->patterns.front().NumEdges();
  int32_t best_many =
      many->patterns.empty() ? 0 : many->patterns.front().NumEdges();
  EXPECT_GE(best_many, best_one);
}

TEST(RestartsTest, RestartsRespectTimeBudget) {
  Rng rng(910);
  LabeledGraph g =
      std::move(GenerateErdosRenyi(400, 3.0, 8, &rng).Build()).value();
  SessionConfig config;
  TopKQuery query;
  config.min_support = 2;
  query.k = 5;
  query.dmax = 6;
  query.vmin = 40;
  query.restarts = 1000;  // absurd; budget must stop it
  query.time_budget_seconds = 2.0;
  WallTimer timer;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(timer.ElapsedSeconds(), 15.0);
  EXPECT_TRUE(result->stats.timed_out);
}

TEST(RestartsTest, SingleRestartMatchesDefault) {
  Rng rng(911);
  LabeledGraph g =
      std::move(GenerateErdosRenyi(100, 2.0, 10, &rng).Build()).value();
  SessionConfig config;
  TopKQuery query;
  config.min_support = 2;
  query.k = 5;
  query.dmax = 4;
  query.vmin = 10;
  query.rng_seed = 77;
  Result<QueryResult> a = MineOnce(&g, config, query);
  query.restarts = 1;
  Result<QueryResult> b = MineOnce(&g, config, query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->patterns.size(), b->patterns.size());
}

}  // namespace
}  // namespace spidermine
