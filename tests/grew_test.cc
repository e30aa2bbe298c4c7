#include "baselines/grew.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"

namespace spidermine {
namespace {

/// Three copies of the labeled path 0-1-2.
LabeledGraph ThreePaths() {
  GraphBuilder b;
  for (int copy = 0; copy < 3; ++copy) {
    VertexId base = b.AddVertex(0);
    b.AddVertex(1);
    b.AddVertex(2);
    b.AddEdge(base, base + 1);
    b.AddEdge(base + 1, base + 2);
  }
  return std::move(b.Build()).value();
}

TEST(GrewTest, MergesUpToFullPath) {
  LabeledGraph g = ThreePaths();
  GrewConfig config;
  config.min_support = 3;
  Result<GrewResult> result = GrewDiscover(g, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  // The largest pattern should be the full 3-vertex path, support 3.
  const GrewPattern& top = result->patterns.front();
  EXPECT_EQ(top.pattern.NumVertices(), 3);
  EXPECT_EQ(top.pattern.NumEdges(), 2);
  EXPECT_EQ(top.support, 3);
}

TEST(GrewTest, EmbeddingsAreVertexDisjoint) {
  LabeledGraph g = ThreePaths();
  GrewConfig config;
  config.min_support = 2;
  Result<GrewResult> result = GrewDiscover(g, config);
  ASSERT_TRUE(result.ok());
  for (const GrewPattern& p : result->patterns) {
    std::unordered_set<VertexId> used;
    for (OccurrenceList::Row e : p.embeddings) {
      for (VertexId v : e) {
        EXPECT_TRUE(used.insert(v).second)
            << "vertex " << v << " reused across embeddings of "
            << p.pattern.ToString();
      }
    }
    EXPECT_EQ(p.support, static_cast<int64_t>(p.embeddings.size()));
  }
}

TEST(GrewTest, SupportThresholdHolds) {
  LabeledGraph g = ThreePaths();
  GrewConfig config;
  config.min_support = 4;  // more than the 3 copies
  Result<GrewResult> result = GrewDiscover(g, config);
  ASSERT_TRUE(result.ok());
  for (const GrewPattern& p : result->patterns) {
    // Only the single-vertex level-0 patterns can survive (labels with
    // >= 4 vertices do not exist here, so none should).
    EXPECT_GE(p.support, 4);
  }
}

TEST(GrewTest, FindsPlantedPatternQuickly) {
  Rng rng(5);
  GraphBuilder builder = GenerateErdosRenyi(300, 1.5, 20, &rng);
  Pattern planted = RandomConnectedPattern(10, 0.0, 20, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 4, &rng).ok());
  LabeledGraph g = std::move(builder.Build()).value();
  GrewConfig config;
  config.min_support = 3;
  config.max_iterations = 12;
  Result<GrewResult> result = GrewDiscover(g, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  // GREW merges doubles pattern size per round, so 12 rounds suffice for
  // a 10-vertex pattern; it should get most of the way there.
  EXPECT_GE(result->patterns.front().pattern.NumVertices(), 6);
}

TEST(GrewTest, InvalidConfigRejected) {
  LabeledGraph g = ThreePaths();
  GrewConfig config;
  config.min_support = 0;
  EXPECT_FALSE(GrewDiscover(g, config).ok());
}

TEST(GrewTest, IterationCapRespected) {
  LabeledGraph g = ThreePaths();
  GrewConfig config;
  config.min_support = 2;
  config.max_iterations = 1;
  Result<GrewResult> result = GrewDiscover(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->iterations, 1);
}

}  // namespace
}  // namespace spidermine
