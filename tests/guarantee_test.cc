#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "spidermine/session.h"

#include "spidermine/seed_count.h"

/// \file guarantee_test.cc
/// Empirical validation of the paper's probabilistic guarantee (Theorem 1):
/// with M seed spiders chosen per Lemma 2, SpiderMine returns the top-K
/// largest patterns with probability >= 1 - epsilon. These tests plant a
/// large pattern, run the miner across many independent seeds, and check
/// the empirical success rate against the bound (with slack for the finite
/// number of trials; the analytic value is a LOWER bound, so measured rates
/// sit well above it in practice).

namespace spidermine {
namespace {

struct PlantedInstance {
  LabeledGraph graph;
  int32_t planted_vertices = 0;
};

PlantedInstance MakePlantedInstance(uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder = GenerateErdosRenyi(200, 1.8, 18, &rng);
  Pattern planted = RandomPatternWithDiameter(14, 4, 18, &rng);
  PatternInjector injector(&builder);
  Status status = injector.Inject(planted, 3, &rng);
  PlantedInstance instance{std::move(builder.Build()).value(),
                           planted.NumVertices()};
  EXPECT_TRUE(status.ok());
  return instance;
}

// Success: the miner recovered a pattern at least as large (in vertices) as
// the planted one. Recovered patterns may exceed the plant through
// background interconnections, which the paper explicitly notes.
bool RunOnce(const PlantedInstance& instance, uint64_t seed, double epsilon) {
  SessionConfig config;
  TopKQuery query;
  config.min_support = 3;
  query.k = 5;
  query.dmax = 4;
  query.vmin = instance.planted_vertices;
  query.epsilon = epsilon;
  query.rng_seed = seed;
  Result<QueryResult> result = MineOnce(&instance.graph, config, query);
  if (!result.ok() || result->patterns.empty()) return false;
  return result->patterns.front().NumVertices() >= instance.planted_vertices;
}

TEST(GuaranteeTest, SuccessRateMeetsEpsilonBound) {
  PlantedInstance instance = MakePlantedInstance(1234);
  const double epsilon = 0.1;
  const int trials = 20;
  int successes = 0;
  for (int t = 0; t < trials; ++t) {
    successes += RunOnce(instance, 1000 + static_cast<uint64_t>(t), epsilon)
                     ? 1
                     : 0;
  }
  // 1 - epsilon = 0.90; allow finite-sample slack down to 0.70 (a binomial
  // with p = 0.9, n = 20 is below 14 successes with probability < 1e-4).
  EXPECT_GE(successes, 14)
      << "success rate " << successes << "/" << trials
      << " is far below the 1 - epsilon = 0.9 guarantee";
}

TEST(GuaranteeTest, SmallerEpsilonDrawsMoreSeeds) {
  PlantedInstance instance = MakePlantedInstance(99);
  SessionConfig config;
  TopKQuery query;
  config.min_support = 3;
  query.k = 5;
  query.dmax = 4;
  query.vmin = instance.planted_vertices;
  query.rng_seed = 7;

  query.epsilon = 0.4;
  Result<QueryResult> loose = MineOnce(&instance.graph, config, query);
  query.epsilon = 0.02;
  Result<QueryResult> strict = MineOnce(&instance.graph, config, query);
  ASSERT_TRUE(loose.ok());
  ASSERT_TRUE(strict.ok());
  EXPECT_GT(strict->stats.seed_count_m, loose->stats.seed_count_m);
}

TEST(GuaranteeTest, StarvedSeedsFailMoreOftenThanLemma2Seeds) {
  // With M forced to 1 the "two spiders must land in the pattern" argument
  // cannot hold, so the planted pattern is recovered rarely; with the
  // Lemma 2 M it is recovered nearly always. This is the mechanism behind
  // Figure 1/Lemma 1 and the heart of the paper's design.
  PlantedInstance instance = MakePlantedInstance(4321);
  const int trials = 12;
  int starved = 0;
  int full = 0;
  for (int t = 0; t < trials; ++t) {
    SessionConfig config;
    TopKQuery query;
    config.min_support = 3;
    query.k = 5;
    query.dmax = 4;
    query.vmin = instance.planted_vertices;
    query.rng_seed = 500 + static_cast<uint64_t>(t);

    query.seed_count_override = 1;
    Result<QueryResult> starved_result =
        MineOnce(&instance.graph, config, query);
    if (starved_result.ok() && !starved_result->patterns.empty() &&
        starved_result->patterns.front().NumVertices() >=
            instance.planted_vertices) {
      ++starved;
    }

    query.seed_count_override = 0;  // Lemma 2 value
    Result<QueryResult> full_result =
        MineOnce(&instance.graph, config, query);
    if (full_result.ok() && !full_result->patterns.empty() &&
        full_result->patterns.front().NumVertices() >=
            instance.planted_vertices) {
      ++full;
    }
  }
  EXPECT_GT(full, starved);
  EXPECT_GE(full, trials - 2);
}

TEST(GuaranteeTest, AnalyticBoundIsMonotoneInM) {
  // Sanity of the Lemma 2 arithmetic feeding the tests above: the bound
  // grows with M and shrinks with K.
  const int64_t n = 1000, vmin = 100;
  double previous = 0.0;
  for (int64_t m : {1, 5, 10, 20, 40, 80, 160}) {
    const double bound = SeedSuccessLowerBound(n, vmin, /*k=*/10, m);
    EXPECT_GE(bound, previous) << "m=" << m;
    previous = bound;
  }
  EXPECT_GE(SeedSuccessLowerBound(n, vmin, 1, 80),
            SeedSuccessLowerBound(n, vmin, 10, 80));
}

}  // namespace
}  // namespace spidermine
