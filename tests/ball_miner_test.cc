#include "baselines/ball_miner.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "spider/star_miner.h"
#include "spider_test_util.h"

namespace spidermine {
namespace {

/// Two disjoint triangles with labels (0,1,2) each: every r=1 spider with
/// leaf-leaf edges is realizable here but no star miner can see the closing
/// edges.
LabeledGraph TwoLabeledTriangles() {
  GraphBuilder b;
  for (int copy = 0; copy < 2; ++copy) {
    VertexId base = b.AddVertex(0);
    b.AddVertex(1);
    b.AddVertex(2);
    b.AddEdge(base, base + 1);
    b.AddEdge(base + 1, base + 2);
    b.AddEdge(base, base + 2);
  }
  return std::move(b.Build()).value();
}

TEST(BallMinerTest, FindsTriangleSpider) {
  LabeledGraph g = TwoLabeledTriangles();
  BallMinerConfig config;
  config.min_support = 2;
  config.radius = 1;
  Result<BallMineResult> result = MineBallSpiders(g, config);
  ASSERT_TRUE(result.ok());
  bool found_triangle = false;
  for (const Spider& s : result->spiders) {
    if (s.pattern.NumVertices() == 3 && s.pattern.NumEdges() == 3) {
      found_triangle = true;
      EXPECT_EQ(s.support, 2);
    }
  }
  EXPECT_TRUE(found_triangle)
      << "r=1 ball spiders must include the closed triangle";
}

TEST(BallMinerTest, SupersetOfStarMinerAtRadiusOne) {
  LabeledGraph g = TwoLabeledTriangles();
  StarMinerConfig star_config;
  star_config.min_support = 2;
  Result<StarMineResult> stars = MineStarSpiders(g, star_config, SerialPool());
  ASSERT_TRUE(stars.ok());
  BallMinerConfig ball_config;
  ball_config.min_support = 2;
  ball_config.radius = 1;
  Result<BallMineResult> balls = MineBallSpiders(g, ball_config);
  ASSERT_TRUE(balls.ok());
  // Every star spider must appear among ball spiders, compared by
  // structure: head label + leaf labels and no internal edges.
  for (const Spider& star : stars->Spiders()) {
    bool found = false;
    for (const Spider& ball : balls->spiders) {
      if (ball.pattern.NumVertices() != star.pattern.NumVertices()) continue;
      if (ball.pattern.NumEdges() != star.pattern.NumEdges()) continue;
      if (ball.pattern.Label(0) != star.pattern.Label(0)) continue;
      if (ball.LeafLabels() == star.LeafLabels()) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "missing star " << star.pattern.ToString();
  }
  EXPECT_GE(static_cast<int64_t>(balls->spiders.size()),
            stars->store.size());
}

TEST(BallMinerTest, RadiusBoundsSpiderEccentricity) {
  // Path graph: spiders at radius 2 reach two hops.
  GraphBuilder b;
  for (int copy = 0; copy < 2; ++copy) {
    VertexId base = b.AddVertex(0);
    b.AddVertex(1);
    b.AddVertex(2);
    b.AddVertex(3);
    b.AddEdge(base, base + 1);
    b.AddEdge(base + 1, base + 2);
    b.AddEdge(base + 2, base + 3);
  }
  LabeledGraph g = std::move(b.Build()).value();
  BallMinerConfig config;
  config.min_support = 2;
  config.radius = 2;
  Result<BallMineResult> result = MineBallSpiders(g, config);
  ASSERT_TRUE(result.ok());
  int32_t max_seen = 0;
  for (const Spider& s : result->spiders) {
    int32_t ecc = s.pattern.Eccentricity(0);
    EXPECT_LE(ecc, 2);
    max_seen = std::max(max_seen, ecc);
  }
  EXPECT_EQ(max_seen, 2) << "radius-2 spiders should reach two hops";
}

TEST(BallMinerTest, RuntimeGrowsWithRadius) {
  LabeledGraph g = TwoLabeledTriangles();
  BallMinerConfig config;
  config.min_support = 2;
  config.radius = 1;
  Result<BallMineResult> r1 = MineBallSpiders(g, config);
  config.radius = 2;
  Result<BallMineResult> r2 = MineBallSpiders(g, config);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_GE(r2->spiders.size(), r1->spiders.size());
}

TEST(BallMinerTest, MaxSpidersTruncates) {
  LabeledGraph g = TwoLabeledTriangles();
  BallMinerConfig config;
  config.min_support = 2;
  config.max_spiders = 2;
  Result<BallMineResult> result = MineBallSpiders(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated);
  EXPECT_LE(result->spiders.size(), 3u);
}

TEST(BallMinerTest, InvalidConfigRejected) {
  LabeledGraph g = TwoLabeledTriangles();
  BallMinerConfig config;
  config.min_support = 0;
  EXPECT_FALSE(MineBallSpiders(g, config).ok());
  config.min_support = 2;
  config.radius = 0;
  EXPECT_FALSE(MineBallSpiders(g, config).ok());
}

TEST(BallMinerTest, AnchorsAreSortedDistinct) {
  LabeledGraph g = TwoLabeledTriangles();
  BallMinerConfig config;
  config.min_support = 2;
  Result<BallMineResult> result = MineBallSpiders(g, config);
  ASSERT_TRUE(result.ok());
  for (const Spider& s : result->spiders) {
    EXPECT_TRUE(std::is_sorted(s.anchors.begin(), s.anchors.end()));
    EXPECT_EQ(std::adjacent_find(s.anchors.begin(), s.anchors.end()),
              s.anchors.end());
    EXPECT_EQ(s.support, static_cast<int64_t>(s.anchors.size()));
  }
}

}  // namespace
}  // namespace spidermine
