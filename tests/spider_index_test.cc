#include "spider/spider_index.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/graph_builder.h"
#include "spider/star_miner.h"
#include "spider_test_util.h"

namespace spidermine {
namespace {

/// A store with two spiders: head 0 anchored at {0, 2}, head 1 at {2, 3}.
SpiderStore TwoSpiderStore() {
  SpiderStore store;
  store.Append(0, {}, std::vector<VertexId>{0, 2});
  store.Append(1, {}, std::vector<VertexId>{2, 3});
  return store;
}

TEST(SpiderIndexTest, MapsAnchorsToSpiders) {
  SpiderStore store = TwoSpiderStore();
  SpiderIndex index(&store, 5);
  EXPECT_EQ(index.size(), 2);
  ASSERT_EQ(index.SpidersAt(0).size(), 1u);
  EXPECT_EQ(index.SpidersAt(0)[0], 0);
  ASSERT_EQ(index.SpidersAt(2).size(), 2u);
  EXPECT_TRUE(index.SpidersAt(1).empty());
  EXPECT_TRUE(index.SpidersAt(4).empty());
}

TEST(SpiderIndexTest, PerVertexListsAreAscending) {
  SpiderStore store = TwoSpiderStore();
  SpiderIndex index(&store, 5);
  std::span<const int32_t> at2 = index.SpidersAt(2);
  ASSERT_EQ(at2.size(), 2u);
  EXPECT_EQ(at2[0], 0);
  EXPECT_EQ(at2[1], 1);
}

TEST(SpiderIndexTest, AverageSpidersPerVertex) {
  SpiderStore store;
  store.Append(0, {}, std::vector<VertexId>{0, 1});
  store.Append(1, {}, std::vector<VertexId>{1});
  SpiderIndex index(&store, 4);
  // 3 anchor incidences over 4 vertices.
  EXPECT_DOUBLE_EQ(index.AverageSpidersPerVertex(), 0.75);
}

TEST(SpiderIndexTest, EmptyStore) {
  SpiderStore store;
  SpiderIndex index(&store, 3);
  EXPECT_EQ(index.size(), 0);
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_TRUE(index.SpidersAt(v).empty());
  }
  EXPECT_DOUBLE_EQ(index.AverageSpidersPerVertex(), 0.0);
}

TEST(SpiderIndexTest, ConsistentWithStarMiner) {
  GraphBuilder b;
  // Two identical 2-leaf stars.
  for (int copy = 0; copy < 2; ++copy) {
    VertexId c = b.AddVertex(0);
    b.AddVertex(1);
    b.AddVertex(1);
    b.AddEdge(c, c + 1);
    b.AddEdge(c, c + 2);
  }
  LabeledGraph g = std::move(b.Build()).value();
  StarMinerConfig config;
  config.min_support = 2;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());
  const SpiderStore& store = result->store;
  SpiderIndex index(&store, g.NumVertices());
  // Every spider id listed at vertex v must actually anchor at v.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (int32_t sid : index.SpidersAt(v)) {
      EXPECT_TRUE(store.IsAnchoredAt(sid, v));
    }
  }
  // And conversely every anchor incidence is indexed.
  int64_t indexed = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    indexed += static_cast<int64_t>(index.SpidersAt(v).size());
  }
  EXPECT_EQ(indexed, store.TotalAnchors());
}

}  // namespace
}  // namespace spidermine
